import types

import kprime

REMOVED = ("closure_step", "residue", "prime_implicates_traced", "canonical_key", "is_normal")


def test_all_lists_each_public_name_once():
    assert len(kprime.__all__) == len(set(kprime.__all__))


def test_every_exported_name_resolves_to_a_non_module():
    for name in kprime.__all__:
        assert not isinstance(getattr(kprime, name), types.ModuleType), name


def test_removed_entry_points_stay_removed():
    for name in REMOVED:
        assert name not in kprime.__all__
        assert not hasattr(kprime, name), name
