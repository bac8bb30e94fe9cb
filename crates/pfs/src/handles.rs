//! The handle table: per-(file, process) state found by index.
//!
//! A [`HandleTable`] holds one [`PidSlots`] row per file id, and a row
//! one slot per pid, at the pid's offset from the lowest pid with a
//! slot in it. A lookup is two bounds checks and a subtraction. A row
//! spans only the pids that touched its file: the multi-job scheduler
//! gives each dispatch fresh pids and file ids, so a row is one job
//! wide however many jobs ran before it.

use sioscope_sim::{FileId, Pid};

/// Values indexed by pid: `slots[i]` belongs to pid `base + i`.
#[derive(Debug, Clone, Default)]
pub(crate) struct PidSlots<T> {
    base: u32,
    slots: Vec<Option<T>>,
}

impl<T: Default> PidSlots<T> {
    #[inline]
    fn index(&self, pid: Pid) -> Option<usize> {
        let i = pid.0.checked_sub(self.base)? as usize;
        (i < self.slots.len()).then_some(i)
    }

    /// `pid`'s value, if it has one.
    #[inline]
    pub(crate) fn get(&self, pid: Pid) -> Option<&T> {
        self.slots[self.index(pid)?].as_ref()
    }

    /// `pid`'s value, mutably, if it has one.
    #[inline]
    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut T> {
        let i = self.index(pid)?;
        self.slots[i].as_mut()
    }

    /// `pid`'s slot, growing the row to reach it.
    fn slot(&mut self, pid: Pid) -> &mut Option<T> {
        if self.slots.is_empty() {
            self.base = pid.0;
        } else if pid.0 < self.base {
            let gap = std::iter::repeat_with(|| None).take((self.base - pid.0) as usize);
            self.slots.splice(0..0, gap);
            self.base = pid.0;
        }
        let i = (pid.0 - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Give `pid` the value `value`, replacing any it had.
    pub(crate) fn insert(&mut self, pid: Pid, value: T) {
        *self.slot(pid) = Some(value);
    }

    /// Take `pid`'s value out.
    pub(crate) fn remove(&mut self, pid: Pid) -> Option<T> {
        let i = self.index(pid)?;
        self.slots[i].take()
    }

    /// `pid`'s value, made with `T::default()` if it has none.
    pub(crate) fn get_or_default(&mut self, pid: Pid) -> &mut T {
        self.slot(pid).get_or_insert_with(T::default)
    }
}

/// One [`PidSlots`] row per file, indexed by file id.
#[derive(Debug, Clone, Default)]
pub(crate) struct HandleTable<T> {
    files: Vec<PidSlots<T>>,
}

impl<T: Default> HandleTable<T> {
    /// `pid`'s value on `fid`, if it has one.
    #[inline]
    pub(crate) fn get(&self, fid: FileId, pid: Pid) -> Option<&T> {
        self.files.get(fid.index())?.get(pid)
    }

    /// `pid`'s value on `fid`, mutably, if it has one.
    #[inline]
    pub(crate) fn get_mut(&mut self, fid: FileId, pid: Pid) -> Option<&mut T> {
        self.files.get_mut(fid.index())?.get_mut(pid)
    }

    /// Give `pid` the value `value` on `fid`, replacing any it had.
    pub(crate) fn insert(&mut self, fid: FileId, pid: Pid, value: T) {
        if fid.index() >= self.files.len() {
            self.files.resize_with(fid.index() + 1, PidSlots::default);
        }
        self.files[fid.index()].insert(pid, value);
    }

    /// Take `pid`'s value on `fid` out.
    pub(crate) fn remove(&mut self, fid: FileId, pid: Pid) -> Option<T> {
        self.files.get_mut(fid.index())?.remove(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_found_by_file_and_pid() {
        let mut t = HandleTable::default();
        assert_eq!(t.get(FileId(3), Pid(7)), None, "an empty table has nothing");
        t.insert(FileId(3), Pid(1_000_007), 10u64);
        t.insert(FileId(3), Pid(1_000_002), 20);
        t.insert(FileId(0), Pid(5), 30);
        assert_eq!(t.get(FileId(3), Pid(1_000_007)), Some(&10));
        assert_eq!(t.get(FileId(3), Pid(1_000_002)), Some(&20));
        assert_eq!(t.get(FileId(0), Pid(5)), Some(&30));
        for (fid, pid) in [
            (3, 1_000_003),
            (3, 1),
            (3, 1_000_008),
            (0, 1_000_007),
            (1, 5),
        ] {
            assert_eq!(t.get(FileId(fid), Pid(pid)), None, "({fid}, {pid})");
        }
        *t.get_mut(FileId(3), Pid(1_000_002)).unwrap() += 1;
        assert_eq!(t.remove(FileId(3), Pid(1_000_002)), Some(21));
        assert_eq!(t.get(FileId(3), Pid(1_000_002)), None);
        assert_eq!(t.remove(FileId(3), Pid(1_000_002)), None);
        assert_eq!(t.remove(FileId(9), Pid(1)), None);
        t.insert(FileId(3), Pid(1_000_002), 40);
        assert_eq!(t.get(FileId(3), Pid(1_000_002)), Some(&40), "a reinsert");
    }

    #[test]
    fn a_row_spans_the_pids_that_touched_it() {
        let mut row = PidSlots::default();
        row.insert(Pid(4_096), 'b');
        assert_eq!((row.base, row.slots.len()), (4_096, 1));
        row.insert(Pid(4_099), 'c');
        row.insert(Pid(4_093), 'a');
        assert_eq!((row.base, row.slots.len()), (4_093, 7));
        assert_eq!(row.get(Pid(4_093)), Some(&'a'));
        assert_eq!(row.get(Pid(4_096)), Some(&'b'));
        assert_eq!(row.get(Pid(4_099)), Some(&'c'));
        assert_eq!(row.get(Pid(4_094)), None);
        assert_eq!(row.get(Pid(0)), None);
        assert_eq!(row.get(Pid(u32::MAX)), None);
    }

    #[test]
    fn get_or_default_makes_a_value_once() {
        let mut row: PidSlots<u32> = PidSlots::default();
        *row.get_or_default(Pid(9)) += 1;
        *row.get_or_default(Pid(9)) += 1;
        assert_eq!(row.get(Pid(9)), Some(&2));
        assert_eq!(row.get(Pid(8)), None);
    }
}
