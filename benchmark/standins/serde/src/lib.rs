//! Stand-in for `serde`: the serialisation half, with the trait names and
//! method signatures of the published crate, so `lmpi_obs::ser` (a JSON
//! `Serializer`) and lmpi's `#[derive(serde::Serialize)]` sites compile
//! unchanged. Only what lmpi names.

pub use ser::{Serialize, Serializer};
/// The derive macro, in the macro namespace beside the trait.
pub use serde_derive::Serialize;

pub mod ser {
    use std::fmt::Display;
    use std::marker::PhantomData;

    pub trait Error: Sized + std::error::Error {
        fn custom<T: Display>(msg: T) -> Self;
    }

    pub trait Serialize {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }

    pub trait Serializer: Sized {
        type Ok;
        type Error: Error;
        type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
        type SerializeTuple: SerializeTuple<Ok = Self::Ok, Error = Self::Error>;
        type SerializeTupleStruct: SerializeTupleStruct<Ok = Self::Ok, Error = Self::Error>;
        type SerializeTupleVariant: SerializeTupleVariant<Ok = Self::Ok, Error = Self::Error>;
        type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;
        type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
        type SerializeStructVariant: SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

        fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
        fn serialize_i8(self, v: i8) -> Result<Self::Ok, Self::Error>;
        fn serialize_i16(self, v: i16) -> Result<Self::Ok, Self::Error>;
        fn serialize_i32(self, v: i32) -> Result<Self::Ok, Self::Error>;
        fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
        fn serialize_i128(self, v: i128) -> Result<Self::Ok, Self::Error>;
        fn serialize_u8(self, v: u8) -> Result<Self::Ok, Self::Error>;
        fn serialize_u16(self, v: u16) -> Result<Self::Ok, Self::Error>;
        fn serialize_u32(self, v: u32) -> Result<Self::Ok, Self::Error>;
        fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
        fn serialize_u128(self, v: u128) -> Result<Self::Ok, Self::Error>;
        fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error>;
        fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
        fn serialize_char(self, v: char) -> Result<Self::Ok, Self::Error>;
        fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
        fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
        fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
        fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
        fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
        fn serialize_unit_struct(self, name: &'static str) -> Result<Self::Ok, Self::Error>;
        fn serialize_unit_variant(
            self,
            name: &'static str,
            variant_index: u32,
            variant: &'static str,
        ) -> Result<Self::Ok, Self::Error>;
        fn serialize_newtype_struct<T: Serialize + ?Sized>(
            self,
            name: &'static str,
            value: &T,
        ) -> Result<Self::Ok, Self::Error>;
        fn serialize_newtype_variant<T: Serialize + ?Sized>(
            self,
            name: &'static str,
            variant_index: u32,
            variant: &'static str,
            value: &T,
        ) -> Result<Self::Ok, Self::Error>;
        fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
        fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, Self::Error>;
        fn serialize_tuple_struct(
            self,
            name: &'static str,
            len: usize,
        ) -> Result<Self::SerializeTupleStruct, Self::Error>;
        fn serialize_tuple_variant(
            self,
            name: &'static str,
            variant_index: u32,
            variant: &'static str,
            len: usize,
        ) -> Result<Self::SerializeTupleVariant, Self::Error>;
        fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
        fn serialize_struct(
            self,
            name: &'static str,
            len: usize,
        ) -> Result<Self::SerializeStruct, Self::Error>;
        fn serialize_struct_variant(
            self,
            name: &'static str,
            variant_index: u32,
            variant: &'static str,
            len: usize,
        ) -> Result<Self::SerializeStructVariant, Self::Error>;
    }

    pub trait SerializeSeq {
        type Ok;
        type Error: Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeTuple {
        type Ok;
        type Error: Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeTupleStruct {
        type Ok;
        type Error: Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeTupleVariant {
        type Ok;
        type Error: Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeMap {
        type Ok;
        type Error: Error;
        fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Self::Error>;
        fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeStruct {
        type Ok;
        type Error: Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeStructVariant {
        type Ok;
        type Error: Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// The compound type of a `Serializer` that never produces that
    /// compound: it cannot be constructed, so its methods cannot be reached.
    pub struct Impossible<Ok, E> {
        never: std::convert::Infallible,
        _marker: PhantomData<(Ok, E)>,
    }

    macro_rules! impossible {
        ($($tr:ident { $($method:ident($($arg:ident: $ty:ty),*))* })*) => {$(
            impl<Ok, E: Error> $tr for Impossible<Ok, E> {
                type Ok = Ok;
                type Error = E;
                $(fn $method<T: Serialize + ?Sized>(&mut self, $($arg: $ty,)* _value: &T) -> Result<(), E> {
                    match self.never {}
                })*
                fn end(self) -> Result<Ok, E> {
                    match self.never {}
                }
            }
        )*};
    }

    impossible! {
        SerializeSeq { serialize_element() }
        SerializeTuple { serialize_element() }
        SerializeTupleStruct { serialize_field() }
        SerializeTupleVariant { serialize_field() }
        SerializeMap { serialize_key() serialize_value() }
        SerializeStruct { serialize_field(_key: &'static str) }
        SerializeStructVariant { serialize_field(_key: &'static str) }
    }

    macro_rules! primitive {
        ($($ty:ty => $method:ident)*) => {$(
            impl Serialize for $ty {
                fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                    serializer.$method(*self)
                }
            }
        )*};
    }

    primitive! {
        bool => serialize_bool
        i8 => serialize_i8
        i16 => serialize_i16
        i32 => serialize_i32
        i64 => serialize_i64
        u8 => serialize_u8
        u16 => serialize_u16
        u32 => serialize_u32
        u64 => serialize_u64
        f32 => serialize_f32
        f64 => serialize_f64
    }

    impl Serialize for usize {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.serialize_u64(*self as u64)
        }
    }

    impl Serialize for str {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.serialize_str(self)
        }
    }

    impl Serialize for String {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.serialize_str(self)
        }
    }

    impl<T: Serialize + ?Sized> Serialize for &T {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(serializer)
        }
    }

    impl<T: Serialize> Serialize for Option<T> {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            match self {
                Some(v) => serializer.serialize_some(v),
                None => serializer.serialize_none(),
            }
        }
    }

    impl<T: Serialize> Serialize for [T] {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut seq = serializer.serialize_seq(Some(self.len()))?;
            for item in self {
                seq.serialize_element(item)?;
            }
            seq.end()
        }
    }

    impl<T: Serialize> Serialize for Vec<T> {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            self.as_slice().serialize(serializer)
        }
    }
}
