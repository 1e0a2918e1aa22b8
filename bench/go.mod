module gnumap/bench

go 1.22

require gnumap v0.0.0

replace gnumap => ../
