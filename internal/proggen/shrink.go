package proggen

// Greedy structural shrinking. A divergence's program is minimized by
// repeatedly trying deletions — whole threads, individual statements
// (anywhere in the nesting), if/loop unwrapping, assert conjuncts,
// observed globals — and keeping any deletion after which the *same*
// divergence kind still reproduces under the same model. Operating on the
// structured Prog keeps every candidate well-formed by construction:
// loops carry their render-managed counter with them, threads take their
// fork/join pair along, and main's assert/print tail is regenerated from
// the Forbidden/Observe lists.
//
// The recheck re-runs the oracle's own comparison (not a cheaper proxy),
// so a shrunk reproduction is guaranteed to still diverge. Synthesis-
// independent divergence kinds skip the synthesis phase during rechecks
// to keep shrinking fast.

import "dfence/internal/memmodel"

// shrinkBudget caps oracle rechecks per divergence; greedy first-success
// restarts keep typical shrinks far below it.
const shrinkBudget = 80

// synthKinds are the divergence kinds whose recheck needs the synthesis
// phase.
var synthKinds = map[string]bool{
	"unfixable":           true,
	"insufficient-fences": true,
	"synth-error":         true,
}

// shrink minimizes d.Prog in place, filling d.Shrunk/d.ShrunkSource.
func (f *fuzzer) shrink(d *Divergence) {
	budget := shrinkBudget
	sub := &fuzzer{cfg: f.cfg, rep: &FuzzReport{}}
	sub.cfg.NoShrink = true
	sub.cfg.Logf = nil
	sub.cfg.skipSynth = !synthKinds[d.Kind]

	reproduces := func(c *Prog) bool {
		if budget <= 0 {
			return false
		}
		budget--
		for _, dd := range sub.check(c, nil, nil, d.Index, []memmodel.Model{d.Model}, nil) {
			if dd.Kind == d.Kind && dd.Model == d.Model {
				return true
			}
		}
		return false
	}

	cur := d.Prog
	improved := true
	for improved && budget > 0 {
		improved = false
		for _, cand := range shrinkCandidates(cur) {
			if reproduces(cand) {
				cur = cand
				improved = true
				break
			}
		}
	}
	d.Shrunk = cur
	d.ShrunkSource = cur.Render()
}

// shrinkCandidates enumerates the one-step reductions of p, smallest-
// impact last (thread deletion first shrinks fastest).
func shrinkCandidates(p *Prog) []*Prog {
	var out []*Prog
	for i := range p.Threads {
		q := p.Clone()
		q.Threads = append(q.Threads[:i], q.Threads[i+1:]...)
		out = append(out, q)
	}
	n := countStmts(p)
	for k := 0; k < n; k++ {
		q := p.Clone()
		if mutateNth(q, k, false) {
			out = append(out, q)
		}
	}
	for k := 0; k < n; k++ {
		q := p.Clone()
		if mutateNth(q, k, true) {
			out = append(out, q)
		}
	}
	if len(p.Forbidden) > 1 {
		for i := range p.Forbidden {
			q := p.Clone()
			q.Forbidden = append(q.Forbidden[:i], q.Forbidden[i+1:]...)
			out = append(out, q)
		}
	}
	if len(p.Observe) > 1 {
		for i := range p.Observe {
			q := p.Clone()
			q.Observe = append(q.Observe[:i], q.Observe[i+1:]...)
			out = append(out, q)
		}
	}
	return out
}

// countStmts counts statements in preorder (the index space mutateNth
// addresses).
func countStmts(p *Prog) int {
	var rec func(ss []Stmt) int
	rec = func(ss []Stmt) int {
		n := 0
		for i := range ss {
			n += 1 + rec(ss[i].Body) + rec(ss[i].Else)
		}
		return n
	}
	n := 0
	for i := range p.Threads {
		n += rec(p.Threads[i].Stmts)
	}
	return n
}

// mutateNth deletes (unwrap=false) or unwraps (unwrap=true; if/loop
// bodies replace the construct) the k-th statement of p in preorder,
// in place. Returns false when the operation was inapplicable (unwrap of
// a flat statement) or k is out of range.
func mutateNth(p *Prog, k int, unwrap bool) bool {
	cnt := 0
	applied := false
	applicable := false
	var rec func(ss []Stmt) []Stmt
	rec = func(ss []Stmt) []Stmt {
		out := make([]Stmt, 0, len(ss))
		for _, s := range ss {
			my := cnt
			cnt++
			if my == k && !applied {
				applied = true
				if unwrap {
					if s.Kind == SIf || s.Kind == SLoop {
						applicable = true
						out = append(out, s.Body...)
						out = append(out, s.Else...)
					} else {
						out = append(out, s)
					}
				} else {
					applicable = true // deletion: drop s and its subtree
				}
				continue
			}
			s.Body = rec(s.Body)
			s.Else = rec(s.Else)
			out = append(out, s)
		}
		return out
	}
	for i := range p.Threads {
		p.Threads[i].Stmts = rec(p.Threads[i].Stmts)
	}
	return applied && applicable
}
