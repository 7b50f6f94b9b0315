package serve

import "testing"

// TestMemoKeysPinned pins the memo key of representative job specs. A
// spool's done records are memo entries under these keys, so a change to how a
// spec becomes a program and run description must leave every one of them
// unchanged — otherwise a restarted dfenced silently recomputes every
// result it already has.
func TestMemoKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"builtin/tso/default", JobSpec{Builtin: "chase-lev", Model: "tso", Criterion: "sc"}, "244a26c707a7670c"},
		{"builtin/pso/default", JobSpec{Builtin: "chase-lev", Model: "pso", Criterion: "sc"}, "c0bac1f65171f31c"},
		{"builtin/rmo/default", JobSpec{Builtin: "chase-lev", Model: "rmo", Criterion: "sc"}, "bf98bd86696a08e0"},
		{"builtin/tso/explicit", JobSpec{Builtin: "chase-lev", Model: "tso", Criterion: "lin", FlushProb: 0.3}, "966bd8cae679c3da"},
		{"builtin/pso/explicit", JobSpec{Builtin: "chase-lev", Model: "pso", Criterion: "lin", FlushProb: 0.3}, "b4298a31c719a0f6"},
		{"builtin/rmo/explicit", JobSpec{Builtin: "chase-lev", Model: "rmo", Criterion: "lin", FlushProb: 0.3}, "c742b503f4e48b72"},
		{"builtin/tso/never", JobSpec{Builtin: "chase-lev", Model: "tso", Criterion: "safety", FlushProb: -1}, "4bf5894818db2227"},
		{"builtin/pso/never", JobSpec{Builtin: "chase-lev", Model: "pso", Criterion: "safety", FlushProb: -1}, "a9c7360820570fe3"},
		{"builtin/rmo/never", JobSpec{Builtin: "chase-lev", Model: "rmo", Criterion: "safety", FlushProb: -1}, "68b0a01f2b9c0c1f"},
		{"source/tso/default", JobSpec{Source: mailboxSrc, Model: "tso"}, "f72197b8c18815f2"},
		{"source/pso/explicit", JobSpec{Source: mailboxSrc, Model: "pso", FlushProb: 0.7, Seed: 7, Execs: 300, Rounds: 6}, "9fb54e66b33a5569"},
		{"source/rmo/never", JobSpec{Source: mailboxSrc, Model: "rmo", FlushProb: -1, NoValidate: true, Static: true}, "8b6680f8e9e98157"},
		{"source/sc-criterion", JobSpec{Source: mailboxSrc, Model: "pso", Criterion: "sc", SeqSpec: "queue"}, "e9e390807d4d1c01"},
		// A memory-safety job's seq_spec does not take part in the run.
		{"source/safety+seq_spec", JobSpec{Source: mailboxSrc, Model: "pso", Criterion: "safety", SeqSpec: "queue"}, "df5323e1aeeff272"},
		// Workers never changes the result, so it never changes the key.
		{"source/workers", JobSpec{Source: mailboxSrc, Model: "pso", Workers: 3}, "df5323e1aeeff272"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			prog, _, start, err := spec.build()
			if err != nil {
				t.Fatal(err)
			}
			if got := memoKey(prog, start); got != tc.want {
				t.Errorf("memoKey = %q, want %q", got, tc.want)
			}
		})
	}
}
