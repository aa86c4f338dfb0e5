//! The field-table engine behind scenario specs and campaign files.
//!
//! A record type — the spec itself, one `[[…]]` entry, an optional
//! sub-table — implements [`Record`] with one [`Field`] row per key:
//! section, key, accessor, [`Check`], flags and a doc line. Parsing
//! (`read_record`), canonical emission (`write_record`), range
//! validation (`check_record`) and the documented key list ([`keys`],
//! `markdown`) are all derived from those rows, so adding a knob is
//! adding a row. Each field's Rust type implements `Slot`: how one
//! value reads from and writes to the TOML tree, and how a row's check
//! applies to it.
//!
//! Unknown keys and wrong types are errors naming the full key path, so
//! typos fail loudly instead of silently running the default.

use crate::spec::SpecError;
use crate::toml::{self, Table, Value};

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Row flag: the key must be present whenever its table is.
pub(crate) const REQ: u8 = 1;
/// Row flag: the key is emitted only when it differs from the default.
pub(crate) const SPARSE: u8 = 2;
/// Row flag: the key is a suggested `pamdc sweep --param` axis.
pub(crate) const SWEEP: u8 = 4;

/// What a key accepts beyond its type.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// Anything the type holds (floats must still be finite).
    Any,
    /// A finite number `>= lo` (`> lo` when `open`) and `<= hi`.
    Num {
        /// Lower bound.
        lo: f64,
        /// Whether the lower bound itself is excluded.
        open: bool,
        /// Upper bound (inclusive; infinite = none).
        hi: f64,
    },
    /// A text rule and its description.
    Text(fn(&str) -> bool, &'static str),
}

/// A finite number `>= lo`.
pub(crate) const fn at_least(lo: f64) -> Check {
    Check::Num {
        lo,
        open: false,
        hi: f64::INFINITY,
    }
}

/// A finite number `> lo`.
pub(crate) const fn above(lo: f64) -> Check {
    Check::Num {
        lo,
        open: true,
        hi: f64::INFINITY,
    }
}

/// A finite number in `[lo, hi]`.
pub(crate) const fn within(lo: f64, hi: f64) -> Check {
    Check::Num {
        lo,
        open: false,
        hi,
    }
}

impl Check {
    /// The accepted values in words (docs table and error messages).
    pub fn describe(&self) -> String {
        match *self {
            Check::Any => String::new(),
            Check::Num { lo, open, hi } if hi.is_infinite() => {
                format!("{} {lo}", if open { ">" } else { ">=" })
            }
            Check::Num { lo, open, hi } => {
                format!("in {}{lo}, {hi}]", if open { "(" } else { "[" })
            }
            Check::Text(_, what) => what.into(),
        }
    }

    fn number(&self, x: f64, path: &str) -> Result<(), SpecError> {
        let in_range = match *self {
            Check::Num { lo, open, hi } => (if open { x > lo } else { x >= lo }) && x <= hi,
            _ => true,
        };
        // Far from 1, a number reads in scientific notation, not as
        // hundreds of digits.
        let got = match x.abs() {
            a if a == 0.0 || (1e-6..1e16).contains(&a) => format!("{x}"),
            _ => format!("{x:e}"),
        };
        match (x.is_finite(), in_range) {
            (true, true) => Ok(()),
            (true, false) => Err(bad(format!(
                "{path} must be {}, got {got}",
                self.describe()
            ))),
            (false, _) => Err(bad(format!("{path} must be a finite number, got {got}"))),
        }
    }

    fn text(&self, s: &str, path: &str) -> Result<(), SpecError> {
        match *self {
            Check::Text(rule, what) if !rule(s) => {
                Err(bad(format!("{path} must be {what}, got {s:?}")))
            }
            _ => Ok(()),
        }
    }
}

/// A value type a key can hold.
pub(crate) trait Slot {
    /// Type label for the docs key table.
    fn kind(&self) -> String;
    /// Replaces the value with the one read from `v`; errors name `path`.
    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError>;
    /// The wire value; `None` leaves the key out.
    fn write(&self) -> Option<Value>;
    /// Applies a row's check (and a sub-record's own rows).
    fn check(&self, check: Check, path: &str) -> Result<(), SpecError>;
    /// Keys nested below this one (a sub-table's own rows).
    fn nested(&self, _path: &str) -> Vec<KeyDoc> {
        Vec::new()
    }
}

impl Slot for f64 {
    fn kind(&self) -> String {
        "float".into()
    }
    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
        *self = v
            .as_float()
            .ok_or_else(|| bad(format!("{path} must be a number")))?;
        Ok(())
    }
    fn write(&self) -> Option<Value> {
        Some(Value::Float(*self))
    }
    fn check(&self, check: Check, path: &str) -> Result<(), SpecError> {
        check.number(*self, path)
    }
}

macro_rules! int_slot {
    ($($ty:ty),*) => {$(
        impl Slot for $ty {
            fn kind(&self) -> String {
                "integer".into()
            }
            fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
                *self = v
                    .as_int()
                    .and_then(|i| <$ty>::try_from(i).ok())
                    .ok_or_else(|| bad(format!("{path} must be a non-negative integer")))?;
                Ok(())
            }
            fn write(&self) -> Option<Value> {
                Some(Value::Int(*self as i64))
            }
            fn check(&self, check: Check, path: &str) -> Result<(), SpecError> {
                check.number(*self as f64, path)
            }
        }
    )*};
}
int_slot!(u64, usize);

impl Slot for bool {
    fn kind(&self) -> String {
        "bool".into()
    }
    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
        *self = v
            .as_bool()
            .ok_or_else(|| bad(format!("{path} must be a boolean")))?;
        Ok(())
    }
    fn write(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }
    fn check(&self, _: Check, _: &str) -> Result<(), SpecError> {
        Ok(())
    }
}

impl Slot for String {
    fn kind(&self) -> String {
        "string".into()
    }
    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
        match v {
            Value::Str(s) => *self = s,
            _ => return Err(bad(format!("{path} must be a string"))),
        }
        Ok(())
    }
    fn write(&self) -> Option<Value> {
        Some(Value::Str(self.clone()))
    }
    fn check(&self, check: Check, path: &str) -> Result<(), SpecError> {
        check.text(self, path)
    }
}

impl<S: Slot + Default> Slot for Option<S> {
    fn kind(&self) -> String {
        S::default().kind()
    }
    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
        self.get_or_insert_with(S::default).read(v, path)
    }
    fn write(&self) -> Option<Value> {
        self.as_ref().and_then(S::write)
    }
    fn check(&self, check: Check, path: &str) -> Result<(), SpecError> {
        self.as_ref().map_or(Ok(()), |s| s.check(check, path))
    }
    fn nested(&self, path: &str) -> Vec<KeyDoc> {
        S::default().nested(path)
    }
}

impl<S: Slot + Default> Slot for Vec<S> {
    fn kind(&self) -> String {
        format!("[{}]", S::default().kind())
    }
    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
        let Value::Array(items) = v else {
            return Err(bad(format!("{path} must be an array")));
        };
        *self = items
            .into_iter()
            .map(|item| {
                let mut s = S::default();
                s.read(item, path).map(|()| s)
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }
    fn write(&self) -> Option<Value> {
        Some(Value::Array(self.iter().filter_map(S::write).collect()))
    }
    fn check(&self, check: Check, path: &str) -> Result<(), SpecError> {
        self.iter().try_for_each(|s| s.check(check, path))
    }
    fn nested(&self, path: &str) -> Vec<KeyDoc> {
        S::default().nested(path)
    }
}

/// Implements [`Slot`] for a fieldless enum from its wire names, plus a
/// `name()` accessor.
macro_rules! named {
    ($ty:ident { $($variant:ident = $name:literal),+ $(,)? }) => {
        impl $ty {
            /// The wire name.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name),+
                }
            }
        }
        impl $crate::schema::Slot for $ty {
            fn kind(&self) -> String {
                [$($name),+].join(" | ")
            }
            fn read(
                &mut self,
                v: $crate::toml::Value,
                path: &str,
            ) -> Result<(), $crate::spec::SpecError> {
                let mut s = String::new();
                $crate::schema::Slot::read(&mut s, v, path)?;
                *self = match s.as_str() {
                    $($name => $ty::$variant,)+
                    _ => {
                        let kinds = $crate::schema::Slot::kind(self);
                        return Err($crate::spec::SpecError(format!(
                            "unknown {path} {s:?} ({kinds})"
                        )));
                    }
                };
                Ok(())
            }
            fn write(&self) -> Option<$crate::toml::Value> {
                Some($crate::toml::Value::Str(self.name().into()))
            }
            fn check(
                &self,
                _: $crate::schema::Check,
                _: &str,
            ) -> Result<(), $crate::spec::SpecError> {
                Ok(())
            }
        }
    };
}
pub(crate) use named;

/// One key of a record: where it lives, how to reach its value, what it
/// accepts and what it means.
pub struct Field<T> {
    /// Table the key sits in, relative to the record (`""` = the
    /// record's own table).
    pub(crate) section: &'static str,
    /// The key.
    pub(crate) key: &'static str,
    /// Accepted values beyond the type.
    pub(crate) check: Check,
    /// [`REQ`] | [`SPARSE`] | [`SWEEP`].
    pub(crate) flags: u8,
    /// One line for the docs key table.
    pub(crate) doc: &'static str,
    /// The field's value.
    pub(crate) get: fn(&T) -> &dyn Slot,
    /// The field's value, for reading into.
    pub(crate) get_mut: fn(&mut T) -> &mut dyn Slot,
    /// Runs after the key is read (defaults that follow a preset).
    pub(crate) then: Option<fn(&mut T)>,
}

/// Builds a row table: `"section" "key" => field.path: check, flags
/// [, then hook], "doc";` per key.
macro_rules! fields {
    ($($section:literal $key:literal => $($field:ident).+ : $check:expr, $flags:expr
       $(, then $then:expr)?, $doc:literal;)*) => {
        &[$($crate::schema::Field {
            section: $section,
            key: $key,
            check: $check,
            flags: $flags,
            doc: $doc,
            get: |r| &r.$($field).+,
            get_mut: |r| &mut r.$($field).+,
            then: $crate::schema::fields!(@then $($then)?),
        }),*]
    };
    (@then) => { None };
    (@then $then:expr) => { Some($then) };
}
pub(crate) use fields;

/// A type read from and written to one TOML table through its rows.
pub trait Record: Default + 'static {
    /// One row per key, in reading order.
    const FIELDS: &'static [Field<Self>];
}

impl<R: Record> Slot for R {
    fn kind(&self) -> String {
        "[table]".into()
    }
    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
        let Value::Table(t) = v else {
            return Err(bad(format!("{path} must be a table")));
        };
        *self = read_record(t, path)?;
        Ok(())
    }
    fn write(&self) -> Option<Value> {
        Some(Value::Table(write_record(self)))
    }
    fn check(&self, _: Check, path: &str) -> Result<(), SpecError> {
        check_record(self, path)
    }
    fn nested(&self, path: &str) -> Vec<KeyDoc> {
        keys::<R>(path)
    }
}

/// `prefix.section.key`, skipping empty parts.
fn join(prefix: &str, section: &str, key: &str) -> String {
    [prefix, section, key]
        .iter()
        .filter(|p| !p.is_empty())
        .copied()
        .collect::<Vec<_>>()
        .join(".")
}

fn unknown(key: &str, table: &str) -> SpecError {
    let table = if table.is_empty() { "root" } else { table };
    bad(format!("unknown key {key:?} in [{table}]"))
}

/// Reads a record from its table. `path` is the record's dotted
/// location (`""` at the document root); missing keys keep the
/// record's defaults, keys no row claims are errors.
pub(crate) fn read_record<T: Record>(mut table: Table, path: &str) -> Result<T, SpecError> {
    let mut rec = T::default();
    for f in T::FIELDS {
        let here = join(path, f.section, f.key);
        let value = match f.section {
            "" => table.remove(f.key),
            section => match table.get_mut(section) {
                None => None,
                Some(Value::Table(t)) => t.remove(f.key),
                Some(_) => return Err(bad(format!("{} must be a table", join(path, section, "")))),
            },
        };
        match value {
            Some(v) => {
                (f.get_mut)(&mut rec).read(v, &here)?;
                if let Some(then) = f.then {
                    then(&mut rec);
                }
            }
            None if f.flags & REQ != 0 => return Err(bad(format!("{here} is required"))),
            None => {}
        }
    }
    for (key, value) in &table {
        match value {
            Value::Table(rest) if T::FIELDS.iter().any(|f| f.section == key) => {
                if let Some(left) = rest.keys().next() {
                    return Err(unknown(left, &join(path, key, "")));
                }
            }
            _ => return Err(unknown(key, path)),
        }
    }
    Ok(rec)
}

/// The canonical table of a record: every row's value, except sparse
/// rows at their default and unset options; sections left empty are
/// left out.
pub(crate) fn write_record<T: Record>(rec: &T) -> Table {
    let defaults = T::default();
    let mut out = Table::new();
    for f in T::FIELDS {
        let Some(v) = (f.get)(rec).write() else {
            continue;
        };
        if f.flags & SPARSE != 0 && (f.get)(&defaults).write().as_ref() == Some(&v) {
            continue;
        }
        let table = match f.section {
            "" => &mut out,
            section => match out
                .entry(section.into())
                .or_insert_with(|| Value::Table(Table::new()))
            {
                Value::Table(t) => t,
                _ => continue,
            },
        };
        table.insert(f.key.into(), v);
    }
    out
}

/// Applies every row's check to a record (sub-records included).
pub(crate) fn check_record<T: Record>(rec: &T, path: &str) -> Result<(), SpecError> {
    T::FIELDS
        .iter()
        .try_for_each(|f| (f.get)(rec).check(f.check, &join(path, f.section, f.key)))
}

/// One documented key: a row flattened to its full path.
#[derive(Clone, Debug)]
pub struct KeyDoc {
    /// Dotted key path (`workload.trace.rate_scale`).
    pub path: String,
    /// Type label.
    pub kind: String,
    /// Default in wire form, `required` or `unset`.
    pub default: String,
    /// Accepted values beyond the type.
    pub check: Check,
    /// The row's flags (required, sparse, sweep axis).
    pub flags: u8,
    /// The row's doc line.
    pub doc: &'static str,
}

/// Every key of a record and of its sub-records, in row order.
pub fn keys<T: Record>(path: &str) -> Vec<KeyDoc> {
    let defaults = T::default();
    let mut out = Vec::new();
    for f in T::FIELDS {
        let here = join(path, f.section, f.key);
        let slot = (f.get)(&defaults);
        let default = match slot.write() {
            _ if f.flags & REQ != 0 => "required".into(),
            None => "unset".into(),
            Some(Value::Table(_)) => String::new(),
            Some(v) => toml::emit_scalar(&v),
        };
        out.push(KeyDoc {
            path: here.clone(),
            kind: slot.kind(),
            default,
            check: f.check,
            flags: f.flags,
            doc: f.doc,
        });
        out.extend(slot.nested(&here));
    }
    out
}

/// The Markdown key table of a record (`docs/SCENARIOS.md` embeds the
/// spec's).
pub fn markdown<T: Record>() -> String {
    let cell = |s: &str| s.replace('|', "\\|");
    let code = |s: &str| match s {
        "" | "required" | "unset" => s.to_string(),
        _ => format!("`{}`", cell(s)),
    };
    let mut out =
        String::from("| Key | Type | Default | Accepts | Meaning |\n|---|---|---|---|---|\n");
    for k in keys::<T>("") {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            k.path,
            cell(&k.kind),
            code(&k.default),
            cell(&k.check.describe()),
            cell(k.doc)
        ));
    }
    out
}
