package xdm

// RefStep exposes the pointer reference step to the external differential
// test (step_diff_test.go), which needs the generator and both parsers.
var RefStep = refStep
