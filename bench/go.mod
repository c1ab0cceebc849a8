module milpjoin/bench

go 1.22

require milpjoin v0.0.0

replace milpjoin => ../
