import math
from fractions import Fraction

import pytest

from unipdec.degrees import catalog
from unipdec.fourier import dl_multiplicity, family_fourier, family_of
from unipdec.labels import GroupDescriptor
from unipdec.weyl import (SignedClass, class_size, coxeter_class, sign_value,
                          signed_classes, w0_class)

B4 = GroupDescriptor.parse("B4")
D4 = GroupDescriptor.parse("D4")


def test_trivial_is_alone_in_its_family():
    for n in (2, 3, 5):
        g = GroupDescriptor("B", n)
        assert family_of(g, f"{n}.") == (f"{n}.",)


def test_four_element_family_of_Bn():
    # F = {[n-1.1], [.n], [(n-1,1).], [B2:n-2.]}
    for n in (3, 4, 6):
        g = GroupDescriptor("B", n)
        fam = set(family_of(g, f".{n}"))
        want = {f"{n - 1}.1", f".{n}", f"{n - 1}1." if n > 2 else "11.",
                f"B2:{n - 2}." if n > 3 else ("B2:1." if n == 3 else None)}
        if n == 4:
            want = {"3.1", ".4", "31.", "B2:2."}
        if n == 3:
            want = {"2.1", ".3", "21.", "B2:1."}
        if n == 6:
            want = {"5.1", ".6", "51.", "B2:4."}
        assert fam == want


def test_d4_cuspidal_family():
    fam = set(family_of(D4, "D4"))
    assert fam == {"D4", ".2^2", "1^2.2", "1.21"}
    row = family_fourier(D4, "D4")
    assert sorted(abs(v) for v in row.values()) == [Fraction(1, 2)] * 4


def test_fourier_row_is_half_integral_and_involutive_on_4_family():
    labels = family_of(B4, ".4")
    import itertools
    mat = {a: family_fourier(B4, a) for a in labels}
    for a in labels:
        for b in labels:
            s = sum(mat[a][c] * mat[b][c] for c in labels)
            assert s == (1 if a == b else 0)
            assert mat[a][b] == mat[b][a]


def test_multw0():
    for n in range(2, 9):
        g = GroupDescriptor("B", n)
        w0 = w0_class(n)
        assert dl_multiplicity(g, f".{n}", w0) == -n + (1 if n % 2 == 0 else 0)
        lab = f"B2:{n - 2}." if n > 3 else ("B2:1." if n == 3 else "B2:.")
        if n == 2:
            lab = "B2:."
        assert dl_multiplicity(g, lab, w0) == -n + (1 if n % 2 == 1 else 0)


def test_trivial_and_steinberg_multiplicities():
    for n in (2, 3, 4):
        g = GroupDescriptor("B", n)
        st = "." + ("1" if n == 1 else f"1^{n}")
        for cls in signed_classes(n):
            assert dl_multiplicity(g, f"{n}.", cls) == 1
            assert dl_multiplicity(g, st, cls) == sign_value(cls)
    # n = 5 spot checks on a few classes
    g = GroupDescriptor("B", 5)
    for cls in (w0_class(5), coxeter_class(5), SignedClass((3, 2), ()),
                SignedClass((2,), (2, 1))):
        assert dl_multiplicity(g, "5.", cls) == 1
        assert dl_multiplicity(g, ".1^5", cls) == sign_value(cls)


def test_dl_orthogonality():
    # sum over unipotent rho of <rho,R_w><rho,R_w'> = delta * |C_W(w)|
    for n in (2, 3):
        g = GroupDescriptor("B", n)
        order = 2 ** n * math.factorial(n)
        labels = [str(c.label) for c in catalog(g)]
        for c1 in signed_classes(n):
            for c2 in signed_classes(n):
                s = sum(dl_multiplicity(g, lab, c1) * dl_multiplicity(g, lab, c2)
                        for lab in labels)
                want = order // class_size(n, c1) if c1 == c2 else 0
                assert s == want


def test_twisted_unsupported():
    from unipdec.degrees import UnsupportedGroupError
    with pytest.raises(UnsupportedGroupError):
        dl_multiplicity(GroupDescriptor.parse("2D4"), "3.", w0_class(4))


def test_dl_orthogonality_n4():
    g = GroupDescriptor.parse("B4")
    order = 2 ** 4 * math.factorial(4)
    labels = [str(c.label) for c in catalog(g)]
    classes = signed_classes(4)
    vals = {lab: {cls: dl_multiplicity(g, lab, cls) for cls in classes}
            for lab in labels}
    for c1 in classes:
        for c2 in classes:
            s = sum(vals[lab][c1] * vals[lab][c2] for lab in labels)
            want = order // class_size(4, c1) if c1 == c2 else 0
            assert s == want


def test_fourier_caches_are_read_only():
    # the memoised families and Fourier rows are shared by every caller, so
    # writing into them must fail rather than change later multiplicities
    from unipdec.fourier import families
    B3 = GroupDescriptor.parse("B3")
    w0 = w0_class(3)
    before = dl_multiplicity(B3, "3.", w0)
    assert before == 1
    row = family_fourier(B3, "3.")
    with pytest.raises(TypeError):
        row["3."] = 7
    keyed, fams = families(B3)
    with pytest.raises(TypeError):
        keyed["3."] = keyed[".3"]
    with pytest.raises(TypeError):
        fams[next(iter(fams))] = ()
    assert all(isinstance(labs, tuple) for labs in fams.values())
    assert dl_multiplicity(B3, "3.", w0) == before
    assert family_fourier(B3, "3.") is row
