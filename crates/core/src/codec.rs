//! The state codec behind machine snapshots and program state: every
//! captured type is described once, and that one description both
//! encodes and decodes it.
//!
//! Value types implement [`Leaf`] and decode by construction. Components
//! the machine builds itself (caches, monitors, the bus, the processors)
//! implement [`Codec`] and decode *in place*, so resuming fills the
//! freshly built machine instead of allocating a second one. Encoding
//! only reads (`&self`). Most impls are generated from a field list by
//! [`record!`], [`tagged!`] or [`names!`], so each JSON key is written
//! once.
//!
//! Decoding checks every index and length against the machine being
//! rebuilt ([`Dec`]): a hostile header yields
//! [`MachineError::SnapshotCorrupt`] naming the offending path
//! (`$.cpus[0].cache.slots[3]: set 9999 out of range ...`, the path
//! syntax `MachineSnapshot::diff` uses), never a panic.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Display;

use vmp_bus::ActionCode;
use vmp_cache::SlotFlags;
use vmp_obs::json::Value;
use vmp_types::{Asid, FrameNum, Nanos, PhysAddr, ProcessorId, VirtAddr, VirtPageNum};

use crate::MachineError;

/// A value type, encoded from `&self` and decoded by construction.
pub(crate) trait Leaf: Sized {
    fn enc(&self, cx: &mut Enc) -> Value;
    fn dec(v: &Value, cx: &Dec) -> Result<Self, MachineError>;
}

/// A state component, encoded from `&self` and decoded in place.
pub(crate) trait Codec {
    fn save(&self, cx: &mut Enc) -> Value;
    fn load(&mut self, v: &Value, cx: &Dec) -> Result<(), MachineError>;
}

impl<T: Leaf> Codec for T {
    fn save(&self, cx: &mut Enc) -> Value {
        self.enc(cx)
    }

    fn load(&mut self, v: &Value, cx: &Dec) -> Result<(), MachineError> {
        T::dec(v, cx).map(|x| *self = x)
    }
}

/// Encoding context: the blob that bulk bytes are appended to.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) blob: Vec<u8>,
}

/// Decoding context: the blob references resolve against, and the
/// bounds of the machine being rebuilt (all unbounded by [`Dec::over`]).
pub(crate) struct Dec<'a> {
    pub(crate) blob: &'a [u8],
    pub(crate) sets: usize,
    pub(crate) ways: usize,
    pub(crate) page: usize,
    pub(crate) frames: u64,
    pub(crate) cpus: usize,
    pub(crate) dmas: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn over(blob: &'a [u8]) -> Self {
        let max = usize::MAX;
        Dec { blob, sets: max, ways: max, page: max, frames: u64::MAX, cpus: max, dmas: max }
    }

    /// Resolves a `{"$blob": offset, "len": length}` reference.
    pub(crate) fn bytes(&self, v: &Value) -> Result<&'a [u8], MachineError> {
        let (off, len): (usize, usize) = (get(v, "$blob", self)?, get(v, "len", self)?);
        let range = off.checked_add(len).and_then(|end| self.blob.get(off..end));
        range.ok_or_else(|| bad(format!("blob range {off}+{len} overruns the blob")))
    }

    /// Checks index `n` against its exclusive `bound`.
    pub(crate) fn below<T: PartialOrd + Display>(
        &self,
        what: &str,
        n: T,
        bound: T,
    ) -> Result<T, MachineError> {
        if n < bound {
            Ok(n)
        } else {
            Err(bad(format!("{what} {n} out of range (< {bound})")))
        }
    }
}

/// A decoding failure at the current path (callers prefix the path).
pub(crate) fn bad(msg: impl Display) -> MachineError {
    MachineError::SnapshotCorrupt { detail: format!(": {msg}") }
}

/// Prefixes a decoding failure's path with `segment` (`.key`, `[i]`, `$`).
pub(crate) fn within(segment: impl Display, e: MachineError) -> MachineError {
    match e {
        MachineError::SnapshotCorrupt { detail } => {
            MachineError::SnapshotCorrupt { detail: format!("{segment}{detail}") }
        }
        other => other,
    }
}

/// Decodes field `key` of object `v` (a missing key reads as `null`).
pub(crate) fn get<T: Leaf>(v: &Value, key: &str, cx: &Dec) -> Result<T, MachineError> {
    T::dec(v.get(key).unwrap_or(&Value::Null), cx).map_err(|e| within(format_args!(".{key}"), e))
}

/// True when field `key` of program state decodes to `ours`.
pub(crate) fn same<T: Leaf + PartialEq>(state: &Value, key: &str, ours: &T) -> bool {
    get(state, key, &Dec::over(&[])).is_ok_and(|x: T| x == *ours)
}

/// Appends the pairs of object `tail` to object `head`.
pub(crate) fn merge(head: Value, tail: Value) -> Value {
    match (head, tail) {
        (Value::Obj(a), Value::Obj(b)) => Value::Obj(a.into_iter().chain(b).collect()),
        (head, _) => head,
    }
}

fn uint(v: &Value) -> Result<u64, MachineError> {
    v.as_u64().ok_or_else(|| bad(format!("expected an integer, found {v}")))
}

fn narrow<T: TryFrom<u64>>(v: &Value) -> Result<T, MachineError> {
    uint(v).and_then(|n| T::try_from(n).map_err(|_| bad(format!("{n} is too large"))))
}

/// Exactly one page of bulk bytes (cache pages, memory frames, swap),
/// borrowed from the machine while encoding.
pub(crate) struct Page<'a>(pub(crate) Cow<'a, [u8]>);

/// Appends `bytes` to the blob and returns their `{"$blob", "len"}` reference.
fn blob(cx: &mut Enc, bytes: &[u8]) -> Value {
    let off = cx.blob.len() as u64;
    cx.blob.extend_from_slice(bytes);
    Value::obj().set("$blob", off).set("len", bytes.len() as u64)
}

/// Implements [`Leaf`] from an encode and a decode expression per type.
macro_rules! leaf {
    ($(
        [$($g:tt)*] $t:ty: |$x:ident, $ecx:pat_param| $enc:expr, |$v:ident, $dcx:ident| $dec:expr;
    )*) => {$(
        impl<$($g)*> Leaf for $t {
            fn enc(&self, $ecx: &mut Enc) -> Value {
                let $x = self;
                $enc
            }

            fn dec($v: &Value, $dcx: &Dec) -> Result<Self, MachineError> {
                $dec
            }
        }
    )*};
}

leaf! {
    [] u64: |x, _| Value::UInt(*x), |v, _cx| uint(v);
    [] u32: |x, _| Value::from(*x), |v, _cx| narrow(v);
    [] usize: |x, _| Value::from(*x), |v, _cx| narrow(v);
    [] Nanos: |x, _| Value::UInt(x.as_ns()), |v, _cx| uint(v).map(Nanos::from_ns);
    [] VirtAddr: |x, _| Value::UInt(x.raw()), |v, _cx| uint(v).map(VirtAddr::new);
    [] PhysAddr: |x, _| Value::UInt(x.raw()), |v, _cx| uint(v).map(PhysAddr::new);
    [] VirtPageNum: |x, _| Value::UInt(x.raw()), |v, _cx| uint(v).map(VirtPageNum::new);
    [] Asid: |x, _| Value::from(u32::from(x.raw())), |v, _cx| narrow(v).map(Asid::new);
    [] ProcessorId: |x, _| Value::from(x.index()), |v, _cx| narrow(v).map(ProcessorId::new);
    [] FrameNum: |x, _| Value::UInt(x.raw()),
        |v, cx| cx.below("frame", uint(v)?, cx.frames).map(FrameNum::new);
    [] ActionCode: |x, _| Value::from(u32::from(x.bits())),
        |v, cx| cx.below("code", uint(v)?, 4).map(|c| ActionCode::from_bits(c as u8));
    // Bit i is the i-th flag, lowest first.
    [] SlotFlags: |x, _| Value::UInt([x.valid, x.modified, x.exclusive, x.supervisor_write,
            x.user_read, x.user_write].iter().rev().fold(0, |bits, &b| bits << 1 | u64::from(b))),
        |v, cx| cx.below("flag bits", uint(v)?, 64).map(|n| {
            let bit = |i: u32| n >> i & 1 == 1;
            SlotFlags { valid: bit(0), modified: bit(1), exclusive: bit(2),
                supervisor_write: bit(3), user_read: bit(4), user_write: bit(5) }
        });
    [] bool: |x, _| Value::Bool(*x),
        |v, _cx| v.as_bool().ok_or_else(|| bad(format!("expected a boolean, found {v}")));
    // Opaque JSON: a program's own state.
    [] Value: |x, _| x.clone(), |v, _cx| Ok(v.clone());
    // Bulk bytes, stored in the blob.
    [] Vec<u8>: |x, cx| blob(cx, x), |v, cx| cx.bytes(v).map(<[u8]>::to_vec);
    ['a] Page<'a>: |x, cx| blob(cx, &x.0), |v, cx| match cx.bytes(v)? {
        b if b.len() == cx.page => Ok(Page(Cow::Owned(b.to_vec()))),
        b => Err(bad(format!("{} bytes where one {}-byte page belongs", b.len(), cx.page))),
    };
    [T: Leaf] Option<T>: |x, cx| x.as_ref().map_or(Value::Null, |x| x.enc(cx)),
        |v, cx| (*v != Value::Null).then(|| T::dec(v, cx)).transpose();
    [T: Leaf] Vec<T>: |x, cx| Value::Arr(x.iter().map(|x| x.enc(cx)).collect()),
        |v, cx| list(v, cx);
    [T: Leaf] VecDeque<T>: |x, cx| Value::Arr(x.iter().map(|x| x.enc(cx)).collect()),
        |v, cx| list(v, cx);
    [T: Leaf, const N: usize] [T; N]: |x, cx| Value::Arr(x.iter().map(|x| x.enc(cx)).collect()),
        |v, cx| <[T; N]>::try_from(list::<T, Vec<T>>(v, cx)?)
            .map_err(|_| bad(format!("expected {N} entries")));
    // A pair, as a two-entry list.
    [A: Leaf, B: Leaf] (A, B): |x, cx| Value::Arr(vec![x.0.enc(cx), x.1.enc(cx)]),
        |v, cx| match v.as_arr() {
            Some([a, b]) => Ok((A::dec(a, cx)?, B::dec(b, cx)?)),
            _ => Err(bad(format!("expected a pair, found {v}"))),
        };
}

fn list<T: Leaf, L: FromIterator<T>>(v: &Value, cx: &Dec) -> Result<L, MachineError> {
    let items = v.as_arr().ok_or_else(|| bad(format!("expected a list, found {v}")))?;
    let item = |(i, x)| T::dec(x, cx).map_err(|e| within(format_args!("[{i}]"), e));
    items.iter().enumerate().map(item).collect()
}

// The macros below expand to code naming `Value` and `MachineError`:
// invoking modules import both.

/// Implements a codec from a field list; each field's name is its JSON
/// key, in list order, and a field marked `@flat` (itself a record) has
/// its keys inlined into the enclosing object.
///
/// - `record! { struct Name { f: T, .. } }` declares a struct and its [`Leaf`];
/// - `record! { Type { f, .. } }` is the [`Leaf`] of an existing struct
///   (naming every field), optionally followed by `check |r, cx| { .. }`
///   to validate the decoded value;
/// - `record! { in_place Type { f, .. } skip { g, .. } }` is a [`Codec`]
///   loading the listed fields and keeping the skipped ones; every field
///   must be named in one list or the other, so a new field does not
///   compile until it is given a place.
macro_rules! record {
    ($(#[$m:meta])* struct $name:ident $(<$l:lifetime>)? {
        $($f:ident $(@$flat:ident)?: $t:ty),* $(,)?
    }) => {
        $(#[$m])* struct $name $(<$l>)? { $($f: $t),* }
        record! { $name $(<$l>)? { $($f $(@$flat)?),* } }
    };
    (in_place $t:ident { $($f:ident),* $(,)? } skip { $($s:ident),* $(,)? }) => {
        impl $crate::codec::Codec for $t {
            fn save(&self, cx: &mut $crate::codec::Enc) -> Value {
                let $t { $($f: _,)* $($s: _,)* } = self;
                Value::obj()$(.set(stringify!($f), $crate::codec::Codec::save(&self.$f, cx)))*
            }

            fn load(&mut self, v: &Value, cx: &$crate::codec::Dec) -> Result<(), MachineError> {
                $(let field = v.get(stringify!($f)).unwrap_or(&Value::Null);
                $crate::codec::Codec::load(&mut self.$f, field, cx)
                    .map_err(|e| $crate::codec::within(concat!(".", stringify!($f)), e))?;)*
                Ok(())
            }
        }
    };
    ($t:ident $(<$l:lifetime>)? { $($f:ident $(@$flat:ident)?),* $(,)? }
        $(check |$r:ident, $c:ident| $ok:block)?
    ) => {
        impl $(<$l>)? $crate::codec::Leaf for $t $(<$l>)? {
            fn enc(&self, cx: &mut $crate::codec::Enc) -> Value {
                let obj = Value::obj();
                $(let obj = record!(@enc obj, self.$f, $f, cx $(, $flat)?);)*
                obj
            }

            fn dec(v: &Value, cx: &$crate::codec::Dec) -> Result<Self, MachineError> {
                let record = $t { $($f: record!(@dec v, $f, cx $(, $flat)?),)* };
                $({ let ($r, $c) = (&record, cx); $ok })?
                Ok(record)
            }
        }
    };
    (@enc $o:ident, $x:expr, $f:ident, $cx:ident, flat) => {
        $crate::codec::merge($o, $crate::codec::Leaf::enc(&$x, $cx))
    };
    (@enc $o:ident, $x:expr, $f:ident, $cx:ident) => {
        $o.set(stringify!($f), $crate::codec::Leaf::enc(&$x, $cx))
    };
    (@dec $v:ident, $f:ident, $cx:ident, flat) => { $crate::codec::Leaf::dec($v, $cx)? };
    (@dec $v:ident, $f:ident, $cx:ident) => { $crate::codec::get($v, stringify!($f), $cx)? };
}

/// Implements [`Leaf`] for an enum as an object tagged by `"k"`. Each
/// variant is `"tag" => Variant` and its payload: `()` for none, `(a, b)`
/// or `{ a, b }` to key the fields by those names, or `(..)` to inline a
/// one-record payload's keys after the tag.
macro_rules! tagged {
    ($t:ident { $($tag:literal => $var:ident $body:tt),* $(,)? }) => {
        impl $crate::codec::Leaf for $t {
            fn enc(&self, cx: &mut $crate::codec::Enc) -> Value {
                match self {
                    $(tagged!(@pat it, $t $var $body) =>
                        tagged!(@enc it, Value::obj().set("k", $tag), cx, $body),)*
                }
            }

            fn dec(v: &Value, cx: &$crate::codec::Dec) -> Result<Self, MachineError> {
                match v.get("k").and_then(Value::as_str) {
                    $(Some($tag) => Ok(tagged!(@dec $t $var, v, cx, $body)),)*
                    _ => Err($crate::codec::bad(format!("bad {} {v}", stringify!($t)))),
                }
            }
        }
    };
    (@pat $i:ident, $t:ident $var:ident ()) => { $t::$var };
    (@pat $i:ident, $t:ident $var:ident (..)) => { $t::$var($i) };
    (@pat $i:ident, $t:ident $var:ident ($($k:ident),*)) => { $t::$var($($k),*) };
    (@pat $i:ident, $t:ident $var:ident {$($k:ident),*}) => { $t::$var { $($k),* } };
    (@enc $i:ident, $o:expr, $cx:ident, ()) => { $o };
    (@enc $i:ident, $o:expr, $cx:ident, (..)) => {
        $crate::codec::merge($o, $crate::codec::Leaf::enc($i, $cx))
    };
    (@enc $i:ident, $o:expr, $cx:ident, ($($k:ident),*)) => { tagged!(@keys $o, $cx, $($k),*) };
    (@enc $i:ident, $o:expr, $cx:ident, {$($k:ident),*}) => { tagged!(@keys $o, $cx, $($k),*) };
    (@keys $o:expr, $cx:ident, $($k:ident),*) => {
        $o$(.set(stringify!($k), $crate::codec::Leaf::enc($k, $cx)))*
    };
    (@dec $t:ident $var:ident, $v:ident, $cx:ident, ()) => { $t::$var };
    (@dec $t:ident $var:ident, $v:ident, $cx:ident, (..)) => {
        $t::$var($crate::codec::Leaf::dec($v, $cx)?)
    };
    (@dec $t:ident $var:ident, $v:ident, $cx:ident, ($($k:ident),*)) => {
        $t::$var($($crate::codec::get($v, stringify!($k), $cx)?),*)
    };
    (@dec $t:ident $var:ident, $v:ident, $cx:ident, {$($k:ident),*}) => {
        $t::$var { $($k: $crate::codec::get($v, stringify!($k), $cx)?),* }
    };
}

/// Implements [`Leaf`] for a fieldless enum, stored as the variant's
/// string (`{ A = "a", .. }`) or as its position in the list (`[A, ..]`).
macro_rules! names {
    ($t:ty { $($var:ident = $s:literal),* $(,)? }) => {
        names!(@impl $t, |x| Value::from(match x { $(<$t>::$var => $s),* }),
            |v| match v.as_str() { $(Some($s) => Some(<$t>::$var),)* _ => None });
    };
    ($t:ty [ $($var:ident),* $(,)? ]) => {
        // The exhaustive match makes an unlisted variant a compile error.
        names!(@impl $t, |x| {
            let name = match x { $(<$t>::$var => stringify!($var)),* };
            Value::from([$(stringify!($var)),*].iter().take_while(|n| **n != name).count())
        }, |v| v.as_u64().and_then(|i| [$(<$t>::$var),*].get(i as usize).copied()));
    };
    (@impl $t:ty, |$x:ident| $enc:expr, |$v:ident| $dec:expr) => {
        impl $crate::codec::Leaf for $t {
            fn enc(&self, _: &mut $crate::codec::Enc) -> Value {
                let $x = self;
                $enc
            }

            fn dec($v: &Value, _: &$crate::codec::Dec) -> Result<Self, MachineError> {
                let e = || $crate::codec::bad(format!("bad {} {}", stringify!($t), $v));
                $dec.ok_or_else(e)
            }
        }
    };
}

/// Implements [`Codec`] for a component whose state sits behind
/// accessors, through the state record `$s`: `enc` builds the record from
/// the component, `dec` refills the component from the decoded record.
macro_rules! via {
    ($t:ty as $s:ty {
        enc |$x:ident| $to:expr, dec |$this:ident, $r:pat_param, $cx:ident| $from:expr $(,)?
    }) => {
        impl $crate::codec::Codec for $t {
            fn save(&self, cx: &mut $crate::codec::Enc) -> Value {
                let $x = self;
                $crate::codec::Leaf::enc(&$to, cx)
            }

            fn load(&mut self, v: &Value, $cx: &$crate::codec::Dec) -> Result<(), MachineError> {
                let ($this, $r): (_, $s) = (self, $crate::codec::Leaf::dec(v, $cx)?);
                $from;
                Ok(())
            }
        }
    };
}

/// Implements [`crate::Program::save_state`] / `restore_state` from one
/// declaration. The state is tagged `"type": $tag`; the `config` fields
/// are written and, on restore, must equal the fresh instance's (it was
/// constructed the same way); the `progress` fields are written and
/// restored. An optional `valid |s| ..` check runs on the restored state.
macro_rules! program_state {
    ($tag:literal, config [$($c:ident),*], progress [$($p:ident),*]
        $(, valid |$s:ident| $ok:expr)?
    ) => {
        fn save_state(&self) -> Option<Value> {
            let cx = &mut $crate::codec::Enc::default();
            let state = Value::obj().set("type", $tag);
            $(let state = state.set(stringify!($c), $crate::codec::Leaf::enc(&self.$c, cx));)*
            $(let state = state.set(stringify!($p), $crate::codec::Leaf::enc(&self.$p, cx));)*
            Some(state)
        }

        fn restore_state(&mut self, state: &Value) -> bool {
            let cx = &$crate::codec::Dec::over(&[]);
            state.get("type").and_then(Value::as_str) == Some($tag)
                $(&& $crate::codec::same(state, stringify!($c), &self.$c))*
                $(&& $crate::codec::get(state, stringify!($p), cx).map(|x| self.$p = x).is_ok())*
                $(&& { let $s = &*self; $ok })?
        }
    };
}
