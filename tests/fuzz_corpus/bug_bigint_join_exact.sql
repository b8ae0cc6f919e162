-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: multiset
-- bug: join key codes went through float64, so BIGINT keys 2^53 and
-- 2^53+1 collapsed to one code and joined as equal
CREATE TABLE t0 (k BIGINT);
INSERT INTO t0 VALUES (9007199254740992);
CREATE TABLE t1 (k BIGINT);
INSERT INTO t1 VALUES (9007199254740993);
SELECT t0.k FROM t0 JOIN t1 ON t0.k = t1.k;
