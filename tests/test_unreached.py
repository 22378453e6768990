"""Every entry of ``tests/unreached.txt`` names a module of
``src/translayer`` and the text of exactly one of its executable lines.
``tests/reach.py`` checks the same while it traces tier 1, which only one
CI job runs; this check needs no tracer, so a stale entry fails tier 1
on every Python."""

import reach


def test_every_listed_text_is_on_exactly_one_executable_line():
    listed = reach.read_listed()
    assert listed
    located, faults = reach.locate(listed, reach.executable_lines())
    assert faults == []
    assert sorted(located.values()) == sorted(listed.values())


def test_a_missing_or_repeated_text_is_a_fault():
    lines = reach.executable_lines()
    sources = reach.module_lines()
    seen, repeated = set(), None
    for name, line in sorted(lines):
        key = name, sources[name][line - 1]
        if key in seen:
            repeated = key
            break
        seen.add(key)
    assert repeated is not None
    _, faults = reach.locate({("classify.py", "no such line"): "gone",
                              ("nomodule.py", "return []"): "gone",
                              repeated: "ambiguous"}, lines)
    assert len(faults) == 3
    assert "on no executable line of classify.py" in faults[0]
    assert "no such module" in faults[1]
    assert "on executable lines" in faults[2] and "not one" in faults[2]
