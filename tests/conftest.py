import pytest

from quadorders import oracle

# oracle_verdicts keeps its enumerations in these module tables for the life of the process
ORACLE_TABLES = ("_UNIT_COUNTS", "_ROOTS", "_IDEAL_OUTCOMES", "_SPLITS")


@pytest.fixture(autouse=True)
def fresh_oracle_tables(monkeypatch):
    """Each test starts from empty oracle tables, so a mutant it patches into an enumeration
    runs, not an entry an earlier test stored; calling the fixture's value empties them again."""
    def empty():
        for name in ORACLE_TABLES:
            monkeypatch.setattr(oracle, name, {})

    empty()
    return empty
