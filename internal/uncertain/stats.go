package uncertain

import "fmt"

// Stats summarizes a database for logs, the CLI, and experiment reports.
type Stats struct {
	Groups        int     // number of x-tuples (m)
	RealTuples    int     // user-supplied tuples (n)
	NullTuples    int     // materialized null alternatives
	AvgPerGroup   float64 // real tuples per x-tuple
	MinProb       float64 // smallest existential probability of a real tuple
	MaxProb       float64 // largest existential probability of a real tuple
	CertainGroups int     // x-tuples with a single probability-1 alternative
	UncertainMass float64 // total probability mass carried by null tuples
}

// ComputeStats gathers Stats from a database (built or not).
func (db *Database) ComputeStats() Stats {
	s := Stats{Groups: db.groups.Len(), MinProb: 1}
	for _, x := range db.groups.All() {
		real := x.RealTuples()
		s.RealTuples += len(real)
		for _, t := range real {
			if t.Prob < s.MinProb {
				s.MinProb = t.Prob
			}
			if t.Prob > s.MaxProb {
				s.MaxProb = t.Prob
			}
		}
		if nt := x.NullTuple(); nt != nil {
			s.NullTuples++
			s.UncertainMass += nt.Prob
		}
		if x.Certain() {
			s.CertainGroups++
		}
	}
	if s.Groups > 0 {
		s.AvgPerGroup = float64(s.RealTuples) / float64(s.Groups)
	}
	if s.RealTuples == 0 {
		s.MinProb = 0
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("x-tuples=%d tuples=%d (avg %.2f/x-tuple, %d nulls, %d certain) e in [%.3g, %.3g]",
		s.Groups, s.RealTuples, s.AvgPerGroup, s.NullTuples, s.CertainGroups, s.MinProb, s.MaxProb)
}
