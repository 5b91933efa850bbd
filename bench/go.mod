module geoblocks/bench

go 1.24

require geoblocks v0.0.0

replace geoblocks => ../
