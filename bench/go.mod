module nestedsg/bench

go 1.22

require nestedsg v0.0.0

replace nestedsg => ../
