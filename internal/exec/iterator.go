package exec

// The pull-based iterator layer: every operator exposes Next() returning
// one batch of rows. Batches are reused between calls (a caller must not
// retain the batch slice), but the rows inside a batch are stable — scan
// rows belong to their Relation, join rows are freshly built — so hash
// tables may keep references without copying.

// DefaultBatchSize is the number of rows moved per Next() call.
const DefaultBatchSize = 256

// iterator is the internal operator interface.
type iterator interface {
	// next returns the next batch, or nil when exhausted. The returned
	// slice is only valid until the following call.
	next() ([][]int64, error)
}

// scanIter scans a relation batch-at-a-time, applying pushed-down unary
// predicate filters and counting rows into its ScanTrace.
type scanIter struct {
	rel       *Relation
	filters   []scanFilter
	pos       int
	batchSize int
	out       [][]int64
	tr        *ScanTrace
}

func newScanIter(rel *Relation, filters []scanFilter, batchSize int, tr *ScanTrace) *scanIter {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &scanIter{rel: rel, filters: filters, batchSize: batchSize, out: make([][]int64, 0, batchSize), tr: tr}
}

func (s *scanIter) next() ([][]int64, error) {
	for s.pos < len(s.rel.Rows) {
		end := s.pos + s.batchSize
		if end > len(s.rel.Rows) {
			end = len(s.rel.Rows)
		}
		rows := s.rel.Rows[s.pos:end]
		s.pos = end
		if s.tr != nil {
			s.tr.InRows += len(rows)
		}
		if len(s.filters) == 0 {
			if s.tr != nil {
				s.tr.OutRows += len(rows)
			}
			return rows, nil
		}
		s.out = s.out[:0]
		for _, row := range rows {
			if passesFilters(row, s.filters) {
				s.out = append(s.out, row)
			}
		}
		if s.tr != nil {
			s.tr.OutRows += len(s.out)
		}
		if len(s.out) > 0 {
			return s.out, nil
		}
		// Every row of the batch was filtered out; pull the next one.
	}
	return nil, nil
}

// joinIter is a symmetric hash join: it maintains a hash table per input,
// and each arriving row first probes the opposite table (matching
// everything that arrived earlier), then is inserted into its own table so
// later opposite rows can find it — every pair matches exactly once, at
// its later arrival. Once one side is exhausted the other side's rows skip
// insertion (nothing will probe them). The symmetry makes the result
// correct under ANY pull schedule; the schedule used drains the
// estimated-smaller side (buildLeft) to exhaustion first, so the join
// degrades to a classic build/probe hash join — one hash table, not two —
// whenever the estimate is usable, while a wrong estimate only costs
// speed, never correctness.
type joinIter struct {
	left, right  iterator
	lKey, rKey   []int // key column indices into each side's schema
	lTab, rTab   *hashTab
	lDone, rDone bool
	buildLeft    bool
	out          [][]int64
	tr           *JoinTrace
}

// newJoinIter builds a join over left and right. buildHint pre-sizes the
// build side's hash table (the estimated input cardinality); the probe
// side's table stays unsized — under the drain-build-first schedule it
// never receives a row.
func newJoinIter(left, right iterator, lKey, rKey []int, batchSize int, buildLeft bool, buildHint int, tr *JoinTrace) *joinIter {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	lHint, rHint := buildHint, 0
	if !buildLeft {
		lHint, rHint = 0, buildHint
	}
	return &joinIter{
		left: left, right: right,
		lKey: lKey, rKey: rKey,
		lTab: newHashTab(lKey, lHint), rTab: newHashTab(rKey, rHint),
		buildLeft: buildLeft,
		out:       make([][]int64, 0, batchSize),
		tr:        tr,
	}
}

func (j *joinIter) next() ([][]int64, error) {
	for {
		if j.lDone && j.rDone {
			return nil, nil
		}
		fromLeft := j.buildLeft
		if j.lDone {
			fromLeft = false
		} else if j.rDone {
			fromLeft = true
		}

		var (
			batch [][]int64
			err   error
		)
		if fromLeft {
			batch, err = j.left.next()
		} else {
			batch, err = j.right.next()
		}
		if err != nil {
			return nil, err
		}
		if batch == nil {
			// Drop the exhausted input and the table its rows were
			// probing: nothing references the finished subtree or the
			// now-unreachable table again, so the GC can reclaim a
			// finished join's state while the rest of the plan runs —
			// peak memory tracks the active path, not the whole tree.
			if fromLeft {
				j.lDone = true
				j.left = nil
				j.rTab = nil
			} else {
				j.rDone = true
				j.right = nil
				j.lTab = nil
			}
			continue
		}

		j.out = j.out[:0]
		if fromLeft {
			if j.tr != nil {
				j.tr.LeftRows += len(batch)
			}
			// An empty opposite table means no right row has arrived yet;
			// skipping the probe saves a hash per row during the build
			// phase. The pairs are not lost — they match when the right
			// rows later probe lTab. Matching runs inline over the raw
			// bucket (filtering hash collisions with keysEqual) so the hot
			// loop makes no indirect calls.
			probe := len(j.rTab.buckets) > 0
			for _, row := range batch {
				if probe {
					for _, m := range j.rTab.bucket(row, j.lKey) {
						if keysEqual(m, j.rTab.idx, row, j.lKey) {
							j.out = append(j.out, concatRows(row, m))
						}
					}
				}
				if !j.rDone {
					j.lTab.insert(row)
				}
			}
		} else {
			if j.tr != nil {
				j.tr.RightRows += len(batch)
			}
			probe := len(j.lTab.buckets) > 0
			for _, row := range batch {
				if probe {
					for _, m := range j.lTab.bucket(row, j.rKey) {
						if keysEqual(m, j.lTab.idx, row, j.rKey) {
							j.out = append(j.out, concatRows(m, row))
						}
					}
				}
				if !j.lDone {
					j.rTab.insert(row)
				}
			}
		}
		if j.tr != nil {
			j.tr.Measured += float64(len(j.out))
		}
		if len(j.out) > 0 {
			return j.out, nil
		}
	}
}
