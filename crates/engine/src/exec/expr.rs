//! Predicates, scalar expressions, and aggregate specifications.

use crate::costs::instr;
use crate::tctx::TraceCtx;
use crate::types::{Columns, Value};

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, reason = "the variants are the SQL comparison operators")]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// Row predicate.
#[derive(Debug, Clone)]
pub enum Pred {
    /// `col <op> const`
    Cmp {
        /// Column index into the input row.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        val: Value,
    },
    /// `col BETWEEN lo AND hi` (inclusive)
    Between {
        /// Column index into the input row.
        col: usize,
        /// Lower bound (inclusive).
        lo: Value,
        /// Upper bound (inclusive).
        hi: Value,
    },
    /// `col [NOT] LIKE '%needle%'`
    StrContains {
        /// Column index into the input row.
        col: usize,
        /// Substring searched for.
        needle: String,
        /// `true` for `NOT LIKE`.
        negate: bool,
    },
    /// `col [NOT] LIKE 'prefix%'`
    StrPrefix {
        /// Column index into the input row.
        col: usize,
        /// Prefix tested for.
        prefix: String,
        /// `true` for `NOT LIKE`.
        negate: bool,
    },
    /// `col IN (...)`
    In {
        /// Column index into the input row.
        col: usize,
        /// Membership set.
        set: Vec<Value>,
    },
    /// Conjunction (empty = `TRUE`).
    And(Vec<Pred>),
    /// Disjunction (empty = `FALSE`).
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Constant `TRUE` (unfiltered scans).
    True,
}

impl Pred {
    /// Evaluate against a row — materialised or still in its page —
    /// charging predicate instructions.
    pub fn eval<R: Columns + ?Sized>(&self, row: &R, tc: &mut TraceCtx) -> bool {
        tc.charge(tc.r.exec_filter, instr::PREDICATE);
        self.eval_inner(row)
    }

    fn eval_inner<R: Columns + ?Sized>(&self, row: &R) -> bool {
        match self {
            Pred::Cmp { col, op, val } => match (*row.col(*col)).partial_cmp(val) {
                Some(ord) => op.test(ord),
                None => false,
            },
            Pred::Between { col, lo, hi } => {
                let v = row.col(*col);
                *v >= *lo && *v <= *hi
            }
            Pred::StrContains {
                col,
                needle,
                negate,
            } => {
                let hit = row
                    .col(*col)
                    .as_str()
                    .is_some_and(|s| s.contains(needle.as_str()));
                hit != *negate
            }
            Pred::StrPrefix {
                col,
                prefix,
                negate,
            } => {
                let hit = row
                    .col(*col)
                    .as_str()
                    .is_some_and(|s| s.starts_with(prefix.as_str()));
                hit != *negate
            }
            Pred::In { col, set } => set.contains(&*row.col(*col)),
            Pred::And(ps) => ps.iter().all(|p| p.eval_inner(row)),
            Pred::Or(ps) => ps.iter().any(|p| p.eval_inner(row)),
            Pred::Not(p) => !p.eval_inner(row),
            Pred::True => true,
        }
    }
}

/// Scalar expression over a row. Decimal values are integer hundredths;
/// multiplying two decimals rescales by /100 to stay in hundredths.
#[derive(Debug, Clone)]
pub enum Scalar {
    /// Column reference (index into the operator's input row).
    Col(usize),
    /// Integer literal.
    ConstInt(i64),
    /// Decimal literal (integer hundredths).
    ConstDec(i64),
    /// The SQL NULL literal.
    Null,
    /// Addition.
    Add(Box<Scalar>, Box<Scalar>),
    /// Subtraction.
    Sub(Box<Scalar>, Box<Scalar>),
    /// Decimal-aware multiply.
    MulDec(Box<Scalar>, Box<Scalar>),
}

impl Scalar {
    /// Evaluate to a raw i64 (decimals in hundredths).
    pub fn eval_i64<R: Columns + ?Sized>(&self, row: &R) -> i64 {
        match self {
            Scalar::Col(i) => row.col(*i).as_i64().unwrap_or(0),
            Scalar::ConstInt(v) | Scalar::ConstDec(v) => *v,
            Scalar::Null => 0,
            Scalar::Add(a, b) => a.eval_i64(row) + b.eval_i64(row),
            Scalar::Sub(a, b) => a.eval_i64(row) - b.eval_i64(row),
            Scalar::MulDec(a, b) => a.eval_i64(row) * b.eval_i64(row) / 100,
        }
    }

    /// Evaluate to a Value. Column references preserve their type; all
    /// computed results are decimals.
    pub fn eval<R: Columns + ?Sized>(&self, row: &R) -> Value {
        match self {
            Scalar::Col(i) => row.col(*i).into_owned(),
            Scalar::ConstInt(v) => Value::Int(*v),
            Scalar::Null => Value::Null,
            _ => Value::Decimal(self.eval_i64(row)),
        }
    }
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// Count rows where the input expression is non-NULL (SQL
    /// `COUNT(col)` — needed after outer joins).
    CountNonNull,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)` (integer division of sum by count).
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
}

/// One aggregate column specification: function over a scalar input.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function applied.
    pub func: AggFunc,
    /// Input expression (ignored for `Count`).
    pub(crate) input: Scalar,
}

impl AggSpec {
    /// `COUNT(*)`.
    pub fn count() -> Self {
        AggSpec {
            func: AggFunc::Count,
            input: Scalar::ConstInt(1),
        }
    }

    /// `SUM(input)`.
    pub fn sum(input: Scalar) -> Self {
        AggSpec {
            func: AggFunc::Sum,
            input,
        }
    }

    /// `AVG(input)`.
    pub fn avg(input: Scalar) -> Self {
        AggSpec {
            func: AggFunc::Avg,
            input,
        }
    }

    /// `MIN(input)`.
    pub fn min(input: Scalar) -> Self {
        AggSpec {
            func: AggFunc::Min,
            input,
        }
    }

    /// `MAX(input)`.
    pub fn max(input: Scalar) -> Self {
        AggSpec {
            func: AggFunc::Max,
            input,
        }
    }

    /// `COUNT(DISTINCT input)`.
    pub fn count_distinct(input: Scalar) -> Self {
        AggSpec {
            func: AggFunc::CountDistinct,
            input,
        }
    }

    /// `COUNT(input)` — non-NULL rows only.
    pub fn count_non_null(input: Scalar) -> Self {
        AggSpec {
            func: AggFunc::CountNonNull,
            input,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use dbcmp_trace::CodeRegions;

    fn tc() -> TraceCtx {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        TraceCtx::null(er)
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(5),
            Value::Decimal(250),
            Value::Str("special packaged box".into()),
            Value::Date(100),
        ]
    }

    #[test]
    fn comparisons() {
        let mut t = tc();
        let r = row();
        assert!(Pred::Cmp {
            col: 0,
            op: CmpOp::Eq,
            val: Value::Int(5)
        }
        .eval(&r, &mut t));
        assert!(Pred::Cmp {
            col: 0,
            op: CmpOp::Lt,
            val: Value::Int(6)
        }
        .eval(&r, &mut t));
        assert!(!Pred::Cmp {
            col: 0,
            op: CmpOp::Gt,
            val: Value::Int(6)
        }
        .eval(&r, &mut t));
        assert!(Pred::Cmp {
            col: 3,
            op: CmpOp::Ge,
            val: Value::Date(100)
        }
        .eval(&r, &mut t));
    }

    #[test]
    fn between_inclusive() {
        let mut t = tc();
        let r = row();
        let p = Pred::Between {
            col: 1,
            lo: Value::Decimal(250),
            hi: Value::Decimal(300),
        };
        assert!(p.eval(&r, &mut t));
        let p2 = Pred::Between {
            col: 1,
            lo: Value::Decimal(251),
            hi: Value::Decimal(300),
        };
        assert!(!p2.eval(&r, &mut t));
    }

    #[test]
    fn string_predicates() {
        let mut t = tc();
        let r = row();
        assert!(Pred::StrContains {
            col: 2,
            needle: "packaged".into(),
            negate: false
        }
        .eval(&r, &mut t));
        assert!(Pred::StrContains {
            col: 2,
            needle: "missing".into(),
            negate: true
        }
        .eval(&r, &mut t));
        assert!(Pred::StrPrefix {
            col: 2,
            prefix: "special".into(),
            negate: false
        }
        .eval(&r, &mut t));
    }

    #[test]
    fn boolean_combinators() {
        let mut t = tc();
        let r = row();
        let yes = Pred::Cmp {
            col: 0,
            op: CmpOp::Eq,
            val: Value::Int(5),
        };
        let no = Pred::Cmp {
            col: 0,
            op: CmpOp::Eq,
            val: Value::Int(6),
        };
        assert!(Pred::And(vec![yes.clone(), Pred::True]).eval(&r, &mut t));
        assert!(!Pred::And(vec![yes.clone(), no.clone()]).eval(&r, &mut t));
        assert!(Pred::Or(vec![no.clone(), yes.clone()]).eval(&r, &mut t));
        assert!(Pred::Not(Box::new(no)).eval(&r, &mut t));
    }

    #[test]
    fn in_set() {
        let mut t = tc();
        let r = row();
        let p = Pred::In {
            col: 0,
            set: vec![Value::Int(3), Value::Int(5)],
        };
        assert!(p.eval(&r, &mut t));
    }

    #[test]
    fn scalar_decimal_math() {
        // price * (1 - discount): price 10.00, discount 0.05 -> 9.50
        let r = vec![Value::Decimal(10_00), Value::Decimal(5)];
        let e = Scalar::MulDec(
            Box::new(Scalar::Col(0)),
            Box::new(Scalar::Sub(
                Box::new(Scalar::ConstDec(100)),
                Box::new(Scalar::Col(1)),
            )),
        );
        assert_eq!(e.eval_i64(&r), 9_50);
        assert_eq!(e.eval(&r), Value::Decimal(9_50));
    }
}
