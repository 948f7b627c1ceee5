//! Fixture for `scripts/test_field_census.py`: each struct holds one shape
//! the census must read correctly.  Not part of the workspace.

/// A field typed inline as a boxed closure returning a generic type must not
/// hide the fields declared after it.
pub struct Source {
    make: Box<dyn Fn(u32) -> Vec<(String, u64)>>,
    actors: Vec<u32>,
    sink: u64,
}

impl Source {
    pub fn run(&mut self) -> usize {
        self.sink = 1;
        (self.make)(0).len() + self.actors.len()
    }
}

/// A field read only through an accessor called on `Type::f(..)` is read.
pub struct Root {
    digest: u64,
}

impl Root {
    pub fn build(leaves: &[u64]) -> Self {
        Root {
            digest: leaves.iter().sum(),
        }
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }
}

pub fn root_of(leaves: &[u64]) -> u64 {
    Root::build(leaves).digest()
}

/// A field nothing reads is listed.
pub struct Unread {
    never: u64,
}

pub fn unread() -> Unread {
    Unread { never: 0 }
}
