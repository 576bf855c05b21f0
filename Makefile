GO ?= go

.PHONY: build vet test race lint fuzz-smoke bench-smoke bench-kernel bench-driver examples loc check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Project-invariant analyzers (internal/lint, DESIGN.md §7a).
lint:
	$(GO) run ./cmd/fomodelvet ./...

# CI runs this list as it stands; TestFuzzSmokeListsEveryFuzzTarget
# (makefile_test.go) fails when a fuzz target in the module is missing.
fuzz-smoke:
	$(GO) test ./internal/artifact -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 30s
	$(GO) test ./internal/artifact -run '^$$' -fuzz FuzzStoreOps -fuzztime 30s
	$(GO) test ./internal/reqkey -run '^$$' -fuzz FuzzCanonicalKey -fuzztime 30s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzReadProfile -fuzztime 30s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzGenerateSources -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzRead -fuzztime 30s
	$(GO) test ./internal/iw -run '^$$' -fuzz FuzzCharacteristic -fuzztime 30s
	$(GO) test ./internal/rng -run '^$$' -fuzz FuzzSampler -fuzztime 30s
	$(GO) test ./internal/flight -run '^$$' -fuzz FuzzCache -fuzztime 30s
	$(GO) test ./internal/uarch -run '^$$' -fuzz FuzzRun -fuzztime 30s
	$(GO) test ./internal/uarch -run '^$$' -fuzz FuzzDecodePreps -fuzztime 30s
	$(GO) test ./internal/experiments -run '^$$' -fuzz FuzzAnalysisArtifact -fuzztime 30s

# Run every benchmark once, so their set-up and b.Fatal paths stay
# working; this checks that they run, not how fast. Of the root
# package's experiment benchmarks, only the detailed simulator and
# Fig. 14, the only caller of the long-miss isolation transform
# (stats.IsolateLongMisses), are included.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
	$(GO) test -run '^$$' -bench 'DetailedSimulator|Figure14$$' -benchtime 1x .

# The simulator kernel's timings at -cpu 1, five runs each:
# BenchmarkRunConfigs times the timing pass per machine and
# BenchmarkSweepServed one /v1/sweep through the daemon. To compare two
# commits, build each one's test binary once and run the two in
# alternation, so that drift on a shared host falls on both sides:
#   go test -c -o old.test ./internal/uarch    # at the parent
#   go test -c -o new.test ./internal/uarch    # at the change
#   for i in 1 2 3 4 5 6 7 8; do for b in old new; do
#     ./$b.test -test.run '^$' -test.bench RunConfigs -test.cpu 1 \
#       -test.benchtime 40x | grep ns/op >> $b.txt
#   done; done
# then compare the per-row minima (or medians) of old.txt and new.txt.
bench-kernel:
	$(GO) test -run '^$$' -bench RunConfigs -cpu 1 -count 5 ./internal/uarch
	$(GO) test -run '^$$' -bench SweepServed -cpu 1 -count 5 ./internal/server

# The benchmark driver's vet and own tests, as the bench-driver CI job
# runs them. bench is a separate module, so the root `go vet ./...`
# does not reach it; -short skips TestSmoke, which starts real daemons
# and a proxy.
bench-driver:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Run every program under examples/ end to end; a non-zero exit from
# any of them fails the target.
examples:
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d" || exit 1; \
	done

# Non-test .go lines of each package under internal/ and cmd/, then
# their total: the line count a simplifying change reports before and
# after. It prints a figure; it is not a gate.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./internal/... ./cmd/... | \
		while read -r pkg files; do printf '%-36s %6d\n' "$$pkg" "$$(cat $$files | wc -l)"; done | \
		awk '{ print; total += $$2 } END { printf "%-36s %6d\n", "total", total }'

check: build vet lint test race examples bench-driver
