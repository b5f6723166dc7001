package main

import (
	"fmt"
	"sort"

	"ds2/internal/nexmark"
	"ds2/internal/streamrt"
)

// checkQ1 compares q1-sink's drained per-auction state with the replay
// oracle, byte for byte: every auction present, counts and euro sums
// equal, nothing extra.
func checkQ1(states map[string]map[string]any, want map[string]nexmark.Q1Agg) error {
	got := states["q1-sink"]
	if len(got) != len(want) {
		return fmt.Errorf("q1: %d auctions at the sink, want %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key].(*nexmark.Q1Agg)
		if !ok || g == nil {
			return fmt.Errorf("q1: auction %s: state %T, want *nexmark.Q1Agg", key, got[key])
		}
		if *g != w {
			return fmt.Errorf("q1: auction %s: %+v, want %+v", key, *g, w)
		}
	}
	return nil
}

// q5Owed is what a sliding window's residual panes still owe the sink:
// a pane p holding c bids will be reported once by each window ending
// at e in [max(p, NextFire), p+k-1] that has not fired yet, where k is
// panes per window.
func q5Owed(ws *streamrt.WindowState, k int64) int {
	owed := 0
	for p, agg := range ws.Panes {
		c, _ := agg.(int)
		first := max(p, ws.NextFire)
		if n := p + k - first; n > 0 {
			owed += c * int(n)
		}
	}
	return owed
}

// checkQ5 is the sliding-window conservation check: every bid is
// counted by exactly k windows, so per auction the bids already fired
// to q5-sink plus what q5-window's residual panes still owe must equal
// k times the oracle's bid count.
func checkQ5(states map[string]map[string]any, want map[string]int, k int64) error {
	total := make(map[string]int)
	fired := 0
	for key, st := range states["q5-sink"] {
		agg, ok := st.(nexmark.Q5Agg)
		if !ok {
			return fmt.Errorf("q5: sink state for %s is %T", key, st)
		}
		total[key] += agg.Bids
		fired += agg.Bids
	}
	if fired == 0 {
		return fmt.Errorf("q5: no window fired")
	}
	for key, st := range states["q5-window"] {
		ws, ok := st.(*streamrt.WindowState)
		if !ok {
			return fmt.Errorf("q5: window state for %s is %T", key, st)
		}
		total[key] += q5Owed(ws, k)
	}
	if len(total) != len(want) {
		return fmt.Errorf("q5: %d auctions accounted, want %d", len(total), len(want))
	}
	for key, n := range want {
		if total[key] != int(k)*n {
			return fmt.Errorf("q5: auction %s: fired+owed = %d, want %d×%d", key, total[key], k, n)
		}
	}
	return nil
}

// table4Cell is one (query, initial parallelism) cell's decision
// sequence: the main operator's parallelism after each applied action.
type table4Cell struct {
	Query   string
	Initial int
	Steps   []int
}

func (c table4Cell) key() string { return fmt.Sprintf("%s/%d", c.Query, c.Initial) }

// maxTable4Steps is DS2's convergence claim (Table 4): at most three
// decisions from any initial configuration.
const maxTable4Steps = 3

// checkTable4 requires every cell driven through the service to take
// exactly the in-process reference's steps, and none more than
// maxTable4Steps.
func checkTable4(got, want []table4Cell) error {
	ref := make(map[string][]int, len(want))
	for _, c := range want {
		ref[c.key()] = c.Steps
	}
	if len(got) != len(want) {
		return fmt.Errorf("table4: %d cells driven, want %d", len(got), len(want))
	}
	sorted := append([]table4Cell(nil), got...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].key() < sorted[b].key() })
	for _, c := range sorted {
		w, ok := ref[c.key()]
		if !ok {
			return fmt.Errorf("table4: unexpected cell %s", c.key())
		}
		if fmt.Sprint(c.Steps) != fmt.Sprint(w) {
			return fmt.Errorf("table4: %s took steps %v, in-process reference %v", c.key(), c.Steps, w)
		}
		if len(c.Steps) > maxTable4Steps {
			return fmt.Errorf("table4: %s took %d steps, more than %d", c.key(), len(c.Steps), maxTable4Steps)
		}
	}
	return nil
}
