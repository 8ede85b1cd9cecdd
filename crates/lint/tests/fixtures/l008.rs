// L008 under a cap of 6 lines: `at_the_cap` spans exactly 6 and passes,
// `one_over` spans 7, a bodiless declaration and an `fn(..)` pointer
// type have no span, and test code is exempt at any length.

pub fn at_the_cap(x: u64) -> u64 {
    let a = x + 1;
    let c = "a string whose \
             continuation still ends a line";
    a + c.len() as u64
}

pub fn one_over(x: u64) -> u64 {
    let a = x + 1;
    let b = a * 2;
    let c = b - 3;
    let d = c ^ 4;
    a + b + c + d
}

pub trait Stepper {
    fn step(&mut self, event: u64) -> Vec<u64>;
}

pub fn apply(f: fn(u64) -> u64, x: u64) -> u64 {
    f(x)
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_driven_tests_may_run_long() {
        assert_eq!(1 + 0, 1);
        assert_eq!(2 + 0, 2);
        assert_eq!(3 + 0, 3);
        assert_eq!(4 + 0, 4);
        assert_eq!(5 + 0, 5);
        assert_eq!(6 + 0, 6);
    }
}
