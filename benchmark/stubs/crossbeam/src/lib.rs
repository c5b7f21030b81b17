//! Offline stand-in for `crossbeam`. The Solros library crates declare
//! the dependency but call nothing in it, so this is empty.
