module macrobase/bench

go 1.22

require macrobase v0.0.0

replace macrobase => ../
