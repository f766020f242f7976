module github.com/minos-ddp/minos/benchmark

go 1.22

require github.com/minos-ddp/minos v0.0.0

replace github.com/minos-ddp/minos => ../
