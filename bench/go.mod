module rocksmash/bench

go 1.22

require rocksmash v0.0.0

replace rocksmash => ../
