-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: ordered
-- bug: sort keys went through float64, so ORDER BY k tied 2^53 with
-- 2^53+1 and left them in input order
CREATE TABLE t0 (k BIGINT, tag INTEGER);
INSERT INTO t0 VALUES (9007199254740993, 1), (9007199254740992, 2);
SELECT tag FROM t0 ORDER BY k;
