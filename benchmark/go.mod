module xqtp/benchmark

go 1.22

require xqtp v0.0.0

replace xqtp => ../
