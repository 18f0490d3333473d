package quality

import (
	"fmt"

	"github.com/probdb/topkclean/internal/topkq"
)

// TPFromStream is TPFromInfo over a merged stream scan (the sharded
// engine's path): the prefix captured by topkq.ScanStream stands in for
// the database cursor, with each tuple's global group index coming from
// the stream rather than the tuple's shard-local Group field. m and n are
// the global group and alternative counts. The float64 operation sequence
// — the E recurrence, the omega evaluation, the Kahan accumulation, the
// final clamp — is exactly TPFromInfo's, so the score is bit-identical to
// the unsharded evaluation.
func TPFromStream(si *topkq.StreamInfo, m, n int) (*Evaluation, error) {
	info := si.RankInfo
	if info == nil || info.N != n {
		return nil, fmt.Errorf("quality: rank info does not match database")
	}
	limit := info.Processed
	if limit > n {
		limit = n
	}
	p := newTPPass(info, m, limit)
	for i := 0; i < limit; i++ {
		st := si.Prefix[i]
		p.step(i, st.T, st.Group)
	}
	return p.finish(), nil
}
