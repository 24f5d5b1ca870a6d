-- Plan-set store schema version 2, exactly as a version-2 store wrote
-- it: ``plan_sets`` with the ``stats_digest`` column, the per-dimension
-- ``param_boxes`` index (dropped in version 3), ``features`` and
-- ``signatures``, and one stored row with its box, feature and
-- signature rows (register() then put()).  Checked in as the migration
-- fixture for tests/test_store.py — ensure_schema() must upgrade a
-- database built from this script to the current version without
-- losing the stored row.
PRAGMA user_version = 2;

CREATE TABLE plan_sets (
    id INTEGER PRIMARY KEY,
    signature TEXT NOT NULL UNIQUE,
    family TEXT NOT NULL,
    scenario TEXT NOT NULL,
    stats_digest TEXT NOT NULL DEFAULT '',
    num_tables INTEGER NOT NULL,
    num_params INTEGER NOT NULL,
    alpha REAL NOT NULL,
    guarantee REAL NOT NULL,
    num_entries INTEGER NOT NULL,
    document TEXT NOT NULL
);

CREATE INDEX ix_plan_sets_family ON plan_sets (family, alpha);

CREATE TABLE param_boxes (
    plan_set_id INTEGER NOT NULL
        REFERENCES plan_sets(id) ON DELETE CASCADE,
    dim INTEGER NOT NULL,
    lo REAL NOT NULL,
    hi REAL NOT NULL,
    PRIMARY KEY (plan_set_id, dim)
);

CREATE TABLE features (
    plan_set_id INTEGER NOT NULL
        REFERENCES plan_sets(id) ON DELETE CASCADE,
    dim INTEGER NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (plan_set_id, dim)
);

CREATE TABLE signatures (
    signature TEXT PRIMARY KEY,
    family TEXT NOT NULL,
    scenario TEXT NOT NULL,
    stats_digest TEXT NOT NULL DEFAULT '',
    num_tables INTEGER NOT NULL,
    num_params INTEGER NOT NULL,
    features TEXT NOT NULL DEFAULT '[]'
);

INSERT INTO plan_sets VALUES
    (1, 'sig-v2', 'fam-v2', 'cloud', 'stats-v2', 2, 1, 0.0, 1.0, 0,
     '{"alpha":0.0,"entries":[],"guarantee":1.0,"num_params":1}');

INSERT INTO param_boxes VALUES (1, 0, 0.0, 1.0);

INSERT INTO features VALUES (1, 0, 1.0), (1, 1, 2.0);

INSERT INTO signatures VALUES
    ('sig-v2', 'fam-v2', 'cloud', 'stats-v2', 2, 1, '[1.0, 2.0]');
