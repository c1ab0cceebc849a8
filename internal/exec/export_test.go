package exec

// ExecuteTree exposes the materializing oracle to the external test
// package, whose streaming benchmark times it as the baseline.
var ExecuteTree = (*Database).executeTree
