-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: multiset
-- bug: min/max went through float64, so both extremes near the int64
-- limit rounded to 2^63, the cast back overflowed and max(a) - min(a)
-- came out NULL instead of 1
CREATE TABLE t0 (a BIGINT);
INSERT INTO t0 VALUES (9223372036854775807), (9223372036854775806);
SELECT max(a) - min(a) FROM t0;
