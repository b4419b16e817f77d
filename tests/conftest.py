"""Shared test inputs."""

import re

import pytest

from liepres.g2 import g2_presentation_text


@pytest.fixture()
def family_member_text():
    """g2.lp with its family coefficients 2, 4, 6 replaced: the (alpha, beta, gamma) member as text."""
    def make(alpha, beta, gamma) -> str:
        coeff = {"2": alpha, "4": beta, "6": gamma}

        def sub(m):
            c = -coeff[m.group(2)] if m.group(1) else coeff[m.group(2)]
            return f"= {c}*{m.group(3)}" if c else "= 0"

        text, n = re.subn(r"= (-?)([246])\*(x\d)$", sub, g2_presentation_text(), flags=re.M)
        assert n == 18
        return text
    return make
