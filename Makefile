GO ?= go

.PHONY: build vet test race lint fuzz-smoke bench-smoke bench-driver check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Project-invariant analyzers (internal/lint, DESIGN.md §7a). Also
# runnable through the go command's build cache:
#   go build -o bin/fomodelvet ./cmd/fomodelvet && go vet -vettool=bin/fomodelvet ./...
lint:
	$(GO) run ./cmd/fomodelvet ./...

fuzz-smoke:
	$(GO) test ./internal/artifact -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 30s
	$(GO) test ./internal/reqkey -run '^$$' -fuzz FuzzCanonicalKey -fuzztime 30s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzReadProfile -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzRead -fuzztime 30s
	$(GO) test ./internal/iw -run '^$$' -fuzz FuzzCharacteristic -fuzztime 30s
	$(GO) test ./internal/rng -run '^$$' -fuzz FuzzSampler -fuzztime 30s
	$(GO) test ./internal/flight -run '^$$' -fuzz FuzzCache -fuzztime 30s
	$(GO) test ./internal/uarch -run '^$$' -fuzz FuzzRun -fuzztime 30s
	$(GO) test ./internal/experiments -run '^$$' -fuzz FuzzAnalysisArtifact -fuzztime 30s

# Run every benchmark once, so their set-up and b.Fatal paths stay
# working; this checks that they run, not how fast.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# The benchmark driver's own tests, as the bench-driver CI job runs them;
# -short skips TestSmoke, which starts real daemons and a proxy.
bench-driver:
	cd bench && $(GO) test -short ./...

check: build vet lint test race
