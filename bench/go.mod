module parmp/bench

go 1.22

require parmp v0.0.0

replace parmp => ../
