module engage/bench

go 1.22

require engage v0.0.0

replace engage => ../
