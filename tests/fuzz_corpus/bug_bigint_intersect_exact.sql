-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: multiset
-- bug: set-operation row codes went through float64, so INTERSECT kept
-- 2^53 because the other branch held 2^53+1
CREATE TABLE t0 (k BIGINT);
INSERT INTO t0 VALUES (9007199254740992);
CREATE TABLE t1 (k BIGINT);
INSERT INTO t1 VALUES (9007199254740993);
SELECT k FROM t0 INTERSECT SELECT k FROM t1;
