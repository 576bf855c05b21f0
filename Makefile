GO ?= go

.PHONY: build test race lint fuzz-smoke check

build:
	$(GO) build ./...

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

check: build lint test race
