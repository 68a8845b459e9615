module adaptivetoken/benchmark

go 1.22

require adaptivetoken v0.0.0

replace adaptivetoken => ../
