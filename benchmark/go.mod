module mmconf/benchmark

go 1.22

require mmconf v0.0.0

replace mmconf => ../
