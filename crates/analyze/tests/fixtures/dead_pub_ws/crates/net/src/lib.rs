pub static UNBUDGETED: u8 = 0;
