-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: multiset
-- bug: the running window min/max went through float64, so the int64
-- extreme rounded to 2^63 and the cast back overflowed to NULL
CREATE TABLE t0 (k INTEGER, a BIGINT);
INSERT INTO t0 VALUES (1, 9223372036854775806), (2, 9223372036854775807), (3, 5);
SELECT k, max(a) OVER (ORDER BY k), min(a) OVER (ORDER BY k) FROM t0;
