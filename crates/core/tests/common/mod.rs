//! A store the test keeps a handle on, so it can reopen — or corrupt —
//! what a structure that owns the other handle wrote.

use std::cell::RefCell;
use std::rc::Rc;

use cosbt_core::Cell;
use cosbt_dam::{Mem, PlainMem};

#[derive(Clone, Default)]
pub struct Shared(Rc<RefCell<PlainMem<Cell>>>);

impl Mem<Cell> for Shared {
    fn len(&self) -> usize {
        self.0.borrow().len()
    }
    fn get(&self, i: usize) -> Cell {
        self.0.borrow().get(i)
    }
    fn set(&mut self, i: usize, v: Cell) {
        self.0.borrow_mut().set(i, v)
    }
    fn resize(&mut self, new_len: usize, fill: Cell) {
        self.0.borrow_mut().resize(new_len, fill)
    }
}
