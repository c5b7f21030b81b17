//! One module per regenerated table/figure of the paper's evaluation.

pub mod fig01a;
pub mod fig01b;
pub mod fig04;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod tab01;
