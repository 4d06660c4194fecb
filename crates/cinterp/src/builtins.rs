//! C standard-library builtins: `printf` formatting, math functions, and a
//! deterministic `rand`/`srand`.

use crate::error::{Fault, InterpError};
use crate::machine::Value;

/// The C `RAND_MAX` our `rand()` advertises.
pub const RAND_MAX: i64 = 2_147_483_647;

/// Deterministic LCG (glibc constants) so simulated programs reproduce.
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    pub fn srand(&mut self, seed: u64) {
        self.state = seed;
    }

    pub fn rand(&mut self) -> i64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.state >> 33) & 0x7FFF_FFFF) as i64
    }
}

/// Format `printf`-style. Supports `%d %i %ld %lld %u %f %lf %e %g %c %s %%`
/// with optional width/precision (e.g. `%.10f`, `%8.3f`, `%5d`).
/// `%s` consumes a string argument carried separately (see `args`).
pub fn format_printf(fmt: &str, args: &[PrintfArg<'_>], line: u32) -> Result<String, Fault> {
    let mut out = String::with_capacity(fmt.len() + 16);
    let mut chars = fmt.chars().peekable();
    let mut next_arg = 0usize;
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            out.push('%');
            continue;
        }
        // Parse flags/width/precision.
        let mut spec = String::new();
        while let Some(&d) = chars.peek() {
            if d.is_ascii_digit() || d == '.' || d == '-' || d == '+' {
                spec.push(d);
                chars.next();
            } else {
                break;
            }
        }
        // Length modifiers.
        while matches!(chars.peek(), Some('l') | Some('h') | Some('z')) {
            chars.next();
        }
        let conv = chars.next().ok_or_else(|| {
            Box::new(InterpError::TypeError {
                detail: "dangling % in format string".into(),
                line,
            })
        })?;
        let arg = args.get(next_arg).ok_or_else(|| {
            Box::new(InterpError::TypeError {
                detail: format!("printf expects more arguments (format `{fmt}`)"),
                line,
            })
        })?;
        next_arg += 1;
        let (width, precision, left) = parse_spec(&spec);
        let rendered = match conv {
            'd' | 'i' | 'u' => {
                let v = arg.as_int(line)?;
                v.to_string()
            }
            'f' | 'F' => {
                let v = arg.as_float(line)?;
                format!("{:.*}", precision.unwrap_or(6), v)
            }
            'e' | 'E' => {
                let v = arg.as_float(line)?;
                let s = format!("{:.*e}", precision.unwrap_or(6), v);
                if conv == 'E' {
                    s.to_uppercase()
                } else {
                    s
                }
            }
            'g' | 'G' => {
                let v = arg.as_float(line)?;
                format!("{v}")
            }
            'c' => {
                let v = arg.as_int(line)?;
                char::from_u32((v & 0xFF) as u32).unwrap_or('?').to_string()
            }
            's' => match arg {
                PrintfArg::Str(s) => s.to_string(),
                _ => {
                    return Err(InterpError::TypeError {
                        detail: "%s needs a string argument".into(),
                        line,
                    }
                    .into())
                }
            },
            'p' | 'x' | 'X' => {
                let v = arg.as_int(line)?;
                format!("{v:x}")
            }
            other => {
                return Err(InterpError::Unsupported {
                    detail: format!("printf conversion %{other}"),
                    line,
                }
                .into())
            }
        };
        out.push_str(&pad(&rendered, width, left));
    }
    Ok(out)
}

fn parse_spec(spec: &str) -> (Option<usize>, Option<usize>, bool) {
    let left = spec.starts_with('-');
    let body = spec.trim_start_matches(['-', '+']);
    match body.split_once('.') {
        Some((w, p)) => (w.parse().ok(), p.parse().ok(), left),
        None => (body.parse().ok(), None, left),
    }
}

fn pad(s: &str, width: Option<usize>, left: bool) -> String {
    match width {
        Some(w) if s.len() < w => {
            let fill = " ".repeat(w - s.len());
            if left {
                format!("{s}{fill}")
            } else {
                format!("{fill}{s}")
            }
        }
        _ => s.to_string(),
    }
}

/// A printf argument: a numeric value or a string literal.
#[derive(Debug, Clone, Copy)]
pub enum PrintfArg<'a> {
    Value(Value),
    Str(&'a str),
}

impl PrintfArg<'_> {
    fn as_int(&self, line: u32) -> Result<i64, Fault> {
        match self {
            PrintfArg::Value(v) => v.as_i64(line),
            PrintfArg::Str(_) => Err(InterpError::TypeError {
                detail: "string used as number".into(),
                line,
            }
            .into()),
        }
    }

    fn as_float(&self, line: u32) -> Result<f64, Fault> {
        match self {
            PrintfArg::Value(v) => v.as_f64(line),
            PrintfArg::Str(_) => Err(InterpError::TypeError {
                detail: "string used as number".into(),
                line,
            }
            .into()),
        }
    }
}

/// The `<math.h>` functions the interpreter knows (all take and return
/// `f64`). A call site is matched to one by name once, at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn {
    Sqrt,
    Fabs,
    Pow,
    Exp,
    Log,
    Log2,
    Log10,
    Sin,
    Cos,
    Tan,
    Floor,
    Ceil,
    Fmax,
    Fmin,
    Fmod,
}

impl MathFn {
    pub fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "sqrt" => MathFn::Sqrt,
            "fabs" => MathFn::Fabs,
            "pow" => MathFn::Pow,
            "exp" => MathFn::Exp,
            "log" => MathFn::Log,
            "log2" => MathFn::Log2,
            "log10" => MathFn::Log10,
            "sin" => MathFn::Sin,
            "cos" => MathFn::Cos,
            "tan" => MathFn::Tan,
            "floor" => MathFn::Floor,
            "ceil" => MathFn::Ceil,
            "fmax" => MathFn::Fmax,
            "fmin" => MathFn::Fmin,
            "fmod" => MathFn::Fmod,
            _ => return None,
        })
    }

    /// How many arguments the function reads.
    pub fn arity(self) -> usize {
        match self {
            MathFn::Pow | MathFn::Fmax | MathFn::Fmin | MathFn::Fmod => 2,
            _ => 1,
        }
    }

    /// Apply to `a` (and `b`, which one-argument functions ignore).
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            MathFn::Sqrt => a.sqrt(),
            MathFn::Fabs => a.abs(),
            MathFn::Pow => a.powf(b),
            MathFn::Exp => a.exp(),
            MathFn::Log => a.ln(),
            MathFn::Log2 => a.log2(),
            MathFn::Log10 => a.log10(),
            MathFn::Sin => a.sin(),
            MathFn::Cos => a.cos(),
            MathFn::Tan => a.tan(),
            MathFn::Floor => a.floor(),
            MathFn::Ceil => a.ceil(),
            MathFn::Fmax => a.max(b),
            MathFn::Fmin => a.min(b),
            MathFn::Fmod => a % b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: i64) -> PrintfArg<'static> {
        PrintfArg::Value(Value::Int(x))
    }

    fn d(x: f64) -> PrintfArg<'static> {
        PrintfArg::Value(Value::Double(x))
    }

    #[test]
    fn printf_ints_and_floats() {
        assert_eq!(
            format_printf("x = %d, y = %f\n", &[v(42), d(1.5)], 1).unwrap(),
            "x = 42, y = 1.500000\n"
        );
    }

    #[test]
    fn printf_precision() {
        assert_eq!(
            format_printf("%.2f", &[d(std::f64::consts::PI)], 1).unwrap(),
            "3.14"
        );
        assert_eq!(
            format_printf("%.10f", &[d(0.5)], 1).unwrap(),
            "0.5000000000"
        );
    }

    #[test]
    fn printf_width_padding() {
        assert_eq!(format_printf("%5d|", &[v(42)], 1).unwrap(), "   42|");
        assert_eq!(format_printf("%-5d|", &[v(42)], 1).unwrap(), "42   |");
        assert_eq!(format_printf("%8.3f", &[d(2.5)], 1).unwrap(), "   2.500");
    }

    #[test]
    fn printf_long_and_percent() {
        assert_eq!(format_printf("%ld%%", &[v(-7)], 1).unwrap(), "-7%");
        assert_eq!(format_printf("%lld", &[v(9)], 1).unwrap(), "9");
    }

    #[test]
    fn printf_char_and_string() {
        assert_eq!(
            format_printf("%c %s", &[v(65), PrintfArg::Str("hi")], 1).unwrap(),
            "A hi"
        );
    }

    #[test]
    fn printf_int_float_interop() {
        // C programmers pass ints to %f rarely, but doubles to %d happens in
        // our generated code via implicit conversions; both coerce.
        assert_eq!(format_printf("%d", &[d(3.9)], 1).unwrap(), "3");
        assert_eq!(format_printf("%f", &[v(2)], 1).unwrap(), "2.000000");
    }

    #[test]
    fn printf_errors() {
        assert!(format_printf("%d %d", &[v(1)], 1).is_err(), "missing arg");
        assert!(format_printf("%q", &[v(1)], 1).is_err(), "unknown conv");
    }

    #[test]
    fn scientific_formats() {
        let s = format_printf("%e", &[d(12345.678)], 1).unwrap();
        assert!(s.contains('e'), "{s}");
    }

    #[test]
    fn rng_deterministic_and_in_range() {
        let mut r1 = Rng::new(7);
        let mut r2 = Rng::new(7);
        for _ in 0..100 {
            let a = r1.rand();
            assert_eq!(a, r2.rand());
            assert!((0..=RAND_MAX).contains(&a));
        }
        r1.srand(7);
        let mut r3 = Rng::new(7);
        assert_eq!(r1.rand(), r3.rand(), "srand resets the stream");
    }

    #[test]
    fn math_dispatch() {
        let call = |name: &str, a, b| MathFn::from_name(name).map(|f| f.apply(a, b));
        assert_eq!(call("sqrt", 9.0, 0.0), Some(3.0));
        assert_eq!(call("fabs", -2.5, 0.0), Some(2.5));
        assert_eq!(call("pow", 2.0, 10.0), Some(1024.0));
        assert_eq!(call("fmax", 1.0, 2.0), Some(2.0));
        assert_eq!(call("nope", 1.0, 0.0), None);
        assert_eq!(MathFn::Sqrt.arity(), 1);
        assert_eq!(MathFn::Fmod.arity(), 2);
    }
}
