module xmatch/bench

go 1.24

require xmatch v0.0.0

replace xmatch => ../
