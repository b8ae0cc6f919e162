-- repro.fuzz reproducer (hand-minimized)
-- classification: wrong_rows
-- compare: ordered
-- bug: window ORDER BY keys went through float64, so row_number() kept
-- input order and rank() tied 2^53 with 2^53+1
CREATE TABLE t0 (k BIGINT, tag INTEGER);
INSERT INTO t0 VALUES (9007199254740993, 1), (9007199254740992, 2);
SELECT tag, row_number() OVER (ORDER BY k), rank() OVER (ORDER BY k) FROM t0 ORDER BY tag;
