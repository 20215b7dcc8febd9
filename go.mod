module sptrsv

go 1.24
