// The benchmark is a module of its own so that it has its own build file
// and the root module's `go build ./... && go test ./...` never sees it.
// Its import path sits under the root module's, which is what lets it
// import the root's internal packages; the replace points at the checkout.
module github.com/ugf-sim/ugf/benchmark

go 1.22

require github.com/ugf-sim/ugf v0.0.0

replace github.com/ugf-sim/ugf => ../
