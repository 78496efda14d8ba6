module herajvm/benchmark

go 1.23

require herajvm v0.0.0

replace herajvm => ../
