-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: multiset
-- bug: grouped min/max went through float64, so 2^53 + 1 rounded to 2^53
-- and each group's max(a) - min(a) came out 0 instead of 1 (the result
-- comparison is float-tolerant, so the query subtracts in exact int64)
CREATE TABLE t0 (g INTEGER, a BIGINT);
INSERT INTO t0 VALUES (1, 9007199254740992), (1, 9007199254740993), (2, -9007199254740993), (2, -9007199254740992);
SELECT g, max(a) - min(a) FROM t0 GROUP BY g;
