-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: multiset
-- bug: semi-join key codes went through float64, so k IN (SELECT k ...)
-- matched 2^53 against 2^53+1
CREATE TABLE t0 (k BIGINT);
INSERT INTO t0 VALUES (9007199254740992);
CREATE TABLE t1 (k BIGINT);
INSERT INTO t1 VALUES (9007199254740993);
SELECT k FROM t0 WHERE k IN (SELECT k FROM t1);
