let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b
