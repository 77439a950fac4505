let used x = x + 1
let test_only x = x - 1
let scale ?(factor = 2) ?(offset = 0) x = (factor * x) + offset
