module coca/bench

go 1.24

require coca v0.0.0

replace coca => ../
