package decomp

import (
	"milpjoin/internal/qopt"
)

// subQuery extracts the induced sub-query of one partition: its tables
// (relabeled 0..k-1 in ascending global order) plus every predicate and
// correlated group living entirely inside the partition. Cut predicates
// stay with the stitcher, which applies them when their partitions meet.
// The returned localOf maps global table index -> local index (-1 when
// outside the partition).
func subQuery(q *qopt.Query, p Partition) (sub *qopt.Query, localOf []int) {
	localOf = make([]int, q.NumTables())
	for i := range localOf {
		localOf[i] = -1
	}
	sub = &qopt.Query{Tables: make([]qopt.Table, len(p.Tables))}
	for li, gi := range p.Tables {
		localOf[gi] = li
		sub.Tables[li] = q.Tables[gi]
	}
	predOf := make([]int, len(q.Predicates)) // global pred -> local pred or -1
	for i := range predOf {
		predOf[i] = -1
	}
	for pi, pred := range q.Predicates {
		inside := true
		for _, t := range pred.Tables {
			if localOf[t] == -1 {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		lp := pred // copies the slice header; rebuild Tables
		lp.Tables = make([]int, len(pred.Tables))
		for i, t := range pred.Tables {
			lp.Tables[i] = localOf[t]
		}
		predOf[pi] = len(sub.Predicates)
		sub.Predicates = append(sub.Predicates, lp)
	}
	for _, g := range q.Correlated {
		inside := true
		lg := qopt.CorrelatedGroup{CorrectionSel: g.CorrectionSel}
		for _, pi := range g.Predicates {
			if predOf[pi] == -1 {
				inside = false
				break
			}
			lg.Predicates = append(lg.Predicates, predOf[pi])
		}
		if inside {
			sub.Correlated = append(sub.Correlated, lg)
		}
	}
	return sub, localOf
}
