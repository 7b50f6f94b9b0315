# Tier-1 verification and CI entry points for dfence-go.
#
#   make build   compile every package
#   make test    full test suite (the tier-1 gate together with build)
#   make race    test suite under the race detector — exercises the
#                parallel execution engine's worker pool
#   make vet     static checks
#   make lint    gofmt (fails if any tracked .go file outside testdata/
#                is unformatted), cmd/modelcheck (exhaustive switches over
#                memmodel.Model and ir.FenceKind; stdlib-only, always
#                runs), then staticcheck, if installed (CI installs it;
#                locally it is skipped with a notice when absent)
#   make bench-check  vet and test the benchmark harness module under
#                bench/ (its own go.mod, so the root `go test ./...` never
#                builds it) — catches API breaks the harness depends on
#   make bench   one pass over each root go test benchmark, the sources
#                of EXPERIMENTS.md tables (smoke; use BENCHTIME for real
#                measurements, e.g. make bench BENCHTIME=3s)
#   make bench-gate     the benchmark regression gate, gating in CI: run
#                       bench/'s traced table3 workload three times on
#                       this checkout and on BASE (a git ref, default
#                       HEAD~1) and fail if core.execs_per_s or
#                       sched.ns_per_iter regressed more than 1.6x in the
#                       median (scripts/bench_gate.sh)
#   make journal-smoke  record a run journal and replay it through
#                       `dfence explain` — fails if the journal schema
#                       drifted (the strict reader rejects it) or the
#                       witness no longer renders — then cut it after its
#                       first checkpoint and `dfence -resume` it, failing
#                       unless the resumed fences equal the full run's
#   make serve-smoke    dfenced crash-recovery gate: start the service,
#                       submit examples/mailbox.mc, SIGKILL the daemon
#                       once a checkpoint is journaled, restart it on the
#                       same spool, and assert the job resumes to the
#                       expected fence, the memo answers a resubmission,
#                       and SIGTERM drains cleanly (artifacts under
#                       SMOKE_DIR)
#   make trace-smoke    record a span trace with -trace, validate it
#                       against the strict trace reader, and render the
#                       terminal summary with `dfence trace` — fails if
#                       the trace-event schema drifted or the summary no
#                       longer renders (artifact at TRACE_JSON)
#   make fuzz-smoke     differential fuzzing campaign at a fixed seed:
#                       200 generated programs cross-checked between
#                       exhaustive enumeration, static analysis, and
#                       dynamic synthesis under SC+TSO+PSO+RMO — fails
#                       on any divergence, writing shrunk repros to
#                       FUZZ_OUT (override FUZZ_SEED/FUZZ_N for ad-hoc
#                       campaigns; nightly CI runs a 10x budget)
#   make ci      everything a PR must pass

GO ?= go
BENCHTIME ?= 1x
BASE ?= HEAD~1
JOURNAL ?= /tmp/dfence_journal_smoke.jsonl
TRACE_JSON ?= /tmp/dfence_trace_smoke.trace.json
SMOKE_DIR ?= /tmp/dfence_serve_smoke
FUZZ_SEED ?= 1
FUZZ_N ?= 200
FUZZ_OUT ?= /tmp/dfence_fuzz_smoke

.PHONY: build test race vet lint bench-check bench bench-gate journal-smoke serve-smoke trace-smoke fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/proggen's enumeration tests are the longest package under
# -race: 156 s on a 2-vCPU machine, the other packages alongside (197 s
# for the whole target). The explicit 30m keeps a slow runner clear of
# go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# The lint fixtures under testdata/ are deliberately malformed Go.
lint:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
		if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/modelcheck .
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || \
		echo "staticcheck not installed; skipping (CI runs it)"

bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) .

# Benchmark regression gate: this checkout against the git ref BASE on
# bench/'s table3 layers, three traced runs a side (~2 min). The runs'
# JSON stay in .bench_build/gate/. See scripts/bench_gate.sh.
bench-gate:
	sh scripts/bench_gate.sh $(BASE)

# Journal schema smoke: record a real run's journal, then replay it
# through the strict reader and the witness explainer. ReadJournal
# rejects unknown events/fields and version mismatches, and explain
# exits non-zero when no witness renders, so this trips on schema drift
# end to end.
# The second half cuts the journal after its first Checkpoint, the way a
# crash would, resumes it with `dfence -resume`, and requires the resumed
# run to report the same fences as the full one.
FENCES_BLOCK = awk '/^fences inserted:/{f=1; print; next} f && /^  /{print; next} {f=0}'
journal-smoke:
	$(GO) run ./cmd/dfence -model pso -spec safety -execs 300 \
		-journal $(JOURNAL) examples/mailbox.mc > $(JOURNAL).out
	$(GO) run ./cmd/dfence explain $(JOURNAL) >/dev/null
	sed '/"ev":"Checkpoint"/q' $(JOURNAL) > $(JOURNAL).cut
	@grep -q '"ev":"Checkpoint"' $(JOURNAL).cut || \
		{ echo "journal-smoke: $(JOURNAL) has no Checkpoint to resume from"; exit 1; }
	$(GO) run ./cmd/dfence -resume $(JOURNAL).cut > $(JOURNAL).resumed.out
	@$(FENCES_BLOCK) $(JOURNAL).out > $(JOURNAL).fences
	@$(FENCES_BLOCK) $(JOURNAL).resumed.out > $(JOURNAL).resumed.fences
	@test -s $(JOURNAL).fences || { echo "journal-smoke: the full run reported no fences"; exit 1; }
	@diff $(JOURNAL).fences $(JOURNAL).resumed.fences || \
		{ echo "journal-smoke: the resumed run's fences differ from the full run's"; exit 1; }
	@echo "journal-smoke: ok ($(JOURNAL) replayed cleanly; the cut journal resumed to the same fences)"

# dfenced crash-recovery smoke: kill -9 mid-run, restart, assert the job
# resumes from its journal checkpoint to the expected result. See
# scripts/serve_smoke.sh for the full sequence.
serve-smoke:
	GO="$(GO)" SMOKE_DIR="$(SMOKE_DIR)" sh scripts/serve_smoke.sh

# Trace schema smoke: record a real run's span trace, then replay it
# through the strict trace reader and the terminal summarizer. Read
# rejects unknown fields, malformed events, and format-version drift,
# and `dfence trace` exits non-zero on a file it cannot summarize, so
# this trips on trace-event schema drift end to end.
trace-smoke:
	$(GO) run ./cmd/dfence -model pso -spec safety -execs 300 \
		-trace $(TRACE_JSON) examples/mailbox.mc >/dev/null
	$(GO) run ./cmd/dfence trace $(TRACE_JSON) >/dev/null
	@echo "trace-smoke: ok ($(TRACE_JSON) summarized cleanly)"

# Differential fuzzing smoke: a fixed-seed campaign over FUZZ_N programs
# (critical-cycle litmus templates + seeded random mini-C programs),
# each cross-checked between exhaustive interleaving+flush+resolve
# enumeration, static delay-set analysis, and dynamic fence synthesis
# under SC, TSO, PSO, and RMO. Same seed, same flags => bit-identical
# report, so this gates CI deterministically; any divergence exits
# non-zero with a shrunk reproduction under $(FUZZ_OUT).
fuzz-smoke:
	$(GO) run ./cmd/dfence fuzz -seed $(FUZZ_SEED) -n $(FUZZ_N) -out $(FUZZ_OUT)

ci: build vet lint test bench-check race journal-smoke serve-smoke trace-smoke fuzz-smoke
