module instantdb/bench

go 1.22

require instantdb v0.0.0

replace instantdb => ../
