module ppj/benchmark

go 1.24

require ppj v0.0.0

replace ppj => ../
