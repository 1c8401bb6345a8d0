// The benchmark is a module of its own so the fabric's build file never
// learns about it; the replace keeps it importing the code beside it.
module themisio/benchmark

go 1.22

require themisio v0.0.0

replace themisio => ../
