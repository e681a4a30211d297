{"first_stage": [1, 2, 3, 7], "second_stage": [[0, 4], [0, 5], [6, 8], [0, 4], [0, 4]], "value": "36"}
