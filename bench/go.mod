// The benchmark is a module of its own so the repository's `go build ./...`
// and `go test ./...` never compile it; the import path keeps the dloop/
// prefix, which is what lets it import dloop/internal/... packages.
module dloop/bench

go 1.22

require dloop v0.0.0

replace dloop => ../
