{"first_stage": [1, 2, 3, 4, 7], "second_stage": [[0], [0], [6], [0], [0]], "value": "36"}
