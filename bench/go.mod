// The benchmark is a module of its own: the repository's build and tests
// (go build ./..., go test ./... at the root) do not see it. It reaches the
// program under test, the module in the parent directory, through replace.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
