module bond/benchmark

go 1.24

require bond v0.0.0

replace bond => ../
